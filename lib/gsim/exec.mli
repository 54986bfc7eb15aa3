(** Functional semantics of one thread executing one instruction.

    Registers are 64-bit; floats are stored as IEEE-754 bit patterns
    (F32 results are rounded through 32 bits).  Integer division by
    zero yields 0, a total stand-in for the undefined PTX behaviour. *)

open Ptx.Types

(** One thread's register state.  [regs] holds general register [r]
    unboxed in the 8 bytes at offset [r lsl 3] (see {!reg},
    {!slot_get}); [preds] holds the predicate registers. *)
type thread = {
  regs : Bytes.t;
  preds : bool array;
  tid : int * int * int;
  lane : int;
}

val make_regs : int -> Bytes.t
(** [make_regs n] is a register file of [n] zeroed slots. *)

val reg : thread -> int -> int64
val set_reg : thread -> int -> int64 -> unit

(** Unchecked 8-byte slot access at a byte offset.  They are
    primitives so that callers in other modules read and write
    register values without boxing them; offsets must come from
    register indices a verified kernel uses. *)

external slot_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external slot_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(** Per-warp execution environment (identical for all lanes). *)
type env = {
  ctaid : int * int * int;
  ntid : int * int * int;
  nctaid : int * int * int;
  warp_in_cta : int;
}

val eval_operand : env -> thread -> operand -> int64
val eval_addr : env -> thread -> addr -> int

val mulhi64 : int64 -> int64 -> int64
(** High 64 bits of the signed 64x64 product. *)

val exec_iop : iop -> int64 -> int64 -> int64
val round_f32 : float -> float
val exec_fop : fop -> dtype -> float -> float -> float
val exec_funary : funary -> dtype -> float -> float
val exec_cvt : dst_ty:dtype -> src_ty:dtype -> int64 -> int64
val exec_cmp : cmp -> dtype -> int64 -> int64 -> bool

val compile_alu : Ptx.Instr.t -> env -> thread array -> int -> unit
(** [compile_alu i] specialises [i] into a closure executing it for
    every lane set in the mask argument (ascending).  Operand-shape
    dispatch happens at compile time, once per pc per launch; results
    are bit-identical to executing the instruction's semantics lane by
    lane.  Compiling a memory/control instruction yields a closure that
    raises when invoked. *)

(** Functional-unit class (for the Fig 4 occupancy statistics). *)
type unit_class = SP | SFU | LDST

val unit_of_instr : Ptx.Instr.t -> unit_class
