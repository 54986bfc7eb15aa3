(** Flat byte-addressable memory.  Global memory is one buffer shared
    by all CTAs; shared/local memories are small per-CTA instances.
    Register values are 64 bits; floats travel as IEEE-754 bit patterns
    (F32 values round through 32 bits on store/load). *)

type t

val create : int -> t
(** [create size] is a zeroed memory of [size] bytes. *)

val size : t -> int

val load : t -> Ptx.Types.dtype -> int -> int64
(** Typed load; narrow signed types sign-extend, unsigned zero-extend,
    F32 widens to double bits.
    @raise Sim_error.Error ([Mem_fault]) on out-of-bounds access. *)

val store : t -> Ptx.Types.dtype -> int -> int64 -> unit
(** Typed store. @raise Sim_error.Error ([Mem_fault]) on out-of-bounds access. *)

(** {1 Register-slot access}

    The warp's load/store paths move values between memory and an
    unboxed register slot (the 8 bytes at [off] of a register file, see
    {!Exec.thread}) without an [int64] box on the way.  Each behaves as
    its boxed counterpart, with the same bounds check. *)

val load_into : t -> Ptx.Types.dtype -> int -> Bytes.t -> int -> unit
(** [load_into t ty addr regs off] stores [load t ty addr] in the slot
    at [off] of [regs]. *)

val store_from : t -> Ptx.Types.dtype -> int -> Bytes.t -> int -> unit
(** [store_from t ty addr regs off] is [store t ty addr] of the slot at
    [off] of [regs]. *)

val atomic_value : Ptx.Types.atomop -> int64 -> int64 -> int64
(** [atomic_value op old v] is the value an atomic leaves in memory. *)

val atomic_into :
  t -> Ptx.Types.atomop -> Ptx.Types.dtype -> int -> int64 -> Bytes.t -> int ->
  unit
(** [atomic_into t op ty addr v regs off] applies [op] with operand [v]
    to the value at [addr] and stores the old value in the slot at
    [off] of [regs]; nothing is written when the access faults. *)

val equal : t -> t -> bool
(** Same size and the same bytes at every address. *)

(** {1 Host-side convenience accessors} *)

val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_f32 : t -> int -> float
val set_f32 : t -> int -> float -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit
val get_f64 : t -> int -> float
val set_f64 : t -> int -> float -> unit
