(* Functional semantics of one thread executing one instruction.

   Registers are 64-bit; floating values are stored as IEEE-754 bit
   patterns (widened to double bits in registers, rounded through 32
   bits for F32 memory traffic).  Integer division by zero yields 0, as
   a total stand-in for the undefined PTX behaviour. *)

open Ptx.Types

(* [regs] holds register [r] unboxed in the 8 bytes at [r lsl 3], so a
   register write stores the value in place instead of allocating an
   [Int64] box.  The slot primitives skip the bounds check: every kernel
   a warp runs has passed [Launch.create]'s verifier, which rejects any
   register index outside [0, nregs). *)
type thread = {
  regs : Bytes.t;
  preds : bool array;
  tid : int * int * int;
  lane : int;
}

external slot_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external slot_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make_regs n = Bytes.make (8 * n) '\000'
let[@inline] reg th r = slot_get th.regs (r lsl 3)
let[@inline] set_reg th r v = slot_set th.regs (r lsl 3) v

(* Per-warp execution environment (identical for all lanes). *)
type env = {
  ctaid : int * int * int;
  ntid : int * int * int;
  nctaid : int * int * int;
  warp_in_cta : int;
}

let dim_of (x, y, z) = function X -> x | Y -> y | Z -> z

let sreg_value env th = function
  | Tid d -> dim_of th.tid d
  | Ntid d -> dim_of env.ntid d
  | Ctaid d -> dim_of env.ctaid d
  | Nctaid d -> dim_of env.nctaid d
  | Laneid -> th.lane
  | Warpid -> env.warp_in_cta

(* The per-lane helpers below are [@inline]: called out of line, each
   call would box its [int64]/[float] arguments and result. *)
let[@inline] eval_operand env th = function
  | Reg r -> reg th r
  | Imm i -> i
  | Fimm f -> Int64.bits_of_float f
  | Sreg s -> Int64.of_int (sreg_value env th s)

let[@inline] eval_addr env th (a : addr) =
  Int64.to_int (eval_operand env th a.abase) + a.aoffset

(* High 64 bits of the signed 64x64 product, via 32-bit halves. *)
let[@inline] mulhi64 a b =
  let mask = 0xFFFFFFFFL in
  let al = Int64.logand a mask and ah = Int64.shift_right a 32 in
  let bl = Int64.logand b mask and bh = Int64.shift_right b 32 in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let mid = Int64.add (Int64.add lh hl) (Int64.shift_right_logical ll 32) in
  Int64.add hh (Int64.shift_right mid 32)

let[@inline] exec_iop op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Mulhi -> mulhi64 a b
  | Div -> if b = 0L then 0L else Int64.div a b
  | Rem -> if b = 0L then 0L else Int64.rem a b
  | Min -> if Int64.compare a b <= 0 then a else b
  | Max -> if Int64.compare a b >= 0 then a else b
  | Band -> Int64.logand a b
  | Bor -> Int64.logor a b
  | Bxor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)

(* Operands of float instructions: register / float-immediate bits are
   IEEE patterns; integer immediates are taken by value. *)
let[@inline] as_float env th = function
  | Imm i -> Int64.to_float i
  | op -> Int64.float_of_bits (eval_operand env th op)

let[@inline] round_f32 f = Int32.float_of_bits (Int32.bits_of_float f)

let[@inline] exec_fop op ty a b =
  let r =
    match op with
    | Fadd -> a +. b
    | Fsub -> a -. b
    | Fmul -> a *. b
    | Fdiv -> a /. b
    | Fmin -> Float.min a b
    | Fmax -> Float.max a b
  in
  if ty = F32 then round_f32 r else r

let[@inline] exec_funary op ty a =
  let r =
    match op with
    | Sqrt -> Float.sqrt a
    | Rsqrt -> 1.0 /. Float.sqrt a
    | Rcp -> 1.0 /. a
    | Sin -> Float.sin a
    | Cos -> Float.cos a
    | Ex2 -> Float.pow 2.0 a
    | Lg2 -> Float.log a /. Float.log 2.0
  in
  if ty = F32 then round_f32 r else r

let[@inline] exec_cvt ~dst_ty ~src_ty v =
  match (dtype_is_float dst_ty, dtype_is_float src_ty) with
  | true, true ->
      if dst_ty = F32 then
        Int64.bits_of_float (round_f32 (Int64.float_of_bits v))
      else v
  | true, false ->
      let f = Int64.to_float v in
      Int64.bits_of_float (if dst_ty = F32 then round_f32 f else f)
  | false, true -> Int64.of_float (Int64.float_of_bits v)
  | false, false -> (
      (* narrow with the destination's signedness *)
      match dst_ty with
      | U8 -> Int64.logand v 0xFFL
      | S8 -> Int64.of_int ((Int64.to_int (Int64.logand v 0xFFL) lsl 55) asr 55)
      | U16 -> Int64.logand v 0xFFFFL
      | S16 ->
          Int64.of_int ((Int64.to_int (Int64.logand v 0xFFFFL) lsl 47) asr 47)
      | U32 -> Int64.logand v 0xFFFFFFFFL
      | S32 -> Int64.of_int32 (Int64.to_int32 v)
      | U64 | S64 -> v
      | F32 | F64 ->
          Sim_error.error Sim_error.Internal
            "exec_cvt: float destination in the integer narrowing path")

let[@inline] exec_cmp c ty a b =
  let r =
    if dtype_is_float ty then
      Float.compare (Int64.float_of_bits a) (Int64.float_of_bits b)
    else if dtype_is_signed ty then Int64.compare a b
    else Int64.unsigned_compare a b
  in
  match c with
  | Eq -> r = 0
  | Ne -> r <> 0
  | Lt -> r < 0
  | Le -> r <= 0
  | Gt -> r > 0
  | Ge -> r >= 0

(* Execute a non-memory, non-control instruction for one thread,
   writing results into its register/predicate files: the general
   per-lane body behind the operand shapes [compile_alu] does not
   specialise. *)
let exec_lane env th (i : Ptx.Instr.t) =
  match i with
  | Mov (d, s) -> set_reg th d (eval_operand env th s)
  | Iop (op, d, a, b) ->
      set_reg th d (exec_iop op (eval_operand env th a) (eval_operand env th b))
  | Mad (d, a, b, c) ->
      set_reg th d
        (Int64.add
           (Int64.mul (eval_operand env th a) (eval_operand env th b))
           (eval_operand env th c))
  | Fop (op, ty, d, a, b) ->
      set_reg th d
        (Int64.bits_of_float
           (exec_fop op ty (as_float env th a) (as_float env th b)))
  | Fma (ty, d, a, b, c) ->
      let r = (as_float env th a *. as_float env th b) +. as_float env th c in
      set_reg th d (Int64.bits_of_float (if ty = F32 then round_f32 r else r))
  | Funary (op, ty, d, a) ->
      set_reg th d (Int64.bits_of_float (exec_funary op ty (as_float env th a)))
  | Cvt (dst_ty, src_ty, d, a) ->
      set_reg th d (exec_cvt ~dst_ty ~src_ty (eval_operand env th a))
  | Setp (c, ty, p, a, b) ->
      th.preds.(p) <-
        exec_cmp c ty (eval_operand env th a) (eval_operand env th b)
  | Selp (d, a, b, p) ->
      set_reg th d
        (if th.preds.(p) then eval_operand env th a else eval_operand env th b)
  | Pnot (d, s) -> th.preds.(d) <- not th.preds.(s)
  | Pand (d, a, b) -> th.preds.(d) <- th.preds.(a) && th.preds.(b)
  | Por (d, a, b) -> th.preds.(d) <- th.preds.(a) || th.preds.(b)
  | Ld_param _ | Ld _ | St _ | Atom _ | Bra _ | Bar | Exit | Label _ ->
      Sim_error.error Sim_error.Internal
        "exec_lane: not an ALU instruction: %s" (Ptx.Instr.to_string i)

(* Compile one ALU instruction into a ready-to-run closure over
   (env, threads, mask), built once per pc at decode time.  The common
   operand shapes (register / immediate) are resolved here and register
   indices pre-scaled to slot offsets, so the per-execution cost is one
   indirect call and a lane loop whose body is a straight slot
   read-compute-write — no instruction dispatch, no operand dispatch,
   no per-lane closure invocation, no allocation.  Every compiled body
   performs exactly the operations of [exec_lane] (bit-identical
   results, ascending lane order); other shapes run [exec_lane] per
   lane. *)
let compile_alu (i : Ptx.Instr.t) : env -> thread array -> int -> unit =
  match i with
  | Mov (d, Reg r) ->
      let d = d lsl 3 and r = r lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d (slot_get x r));
          m := !m lsr 1;
          incr lane
        done
  | Mov (d, Imm v) ->
      let d = d lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          if !m land 1 <> 0 then slot_set threads.(!lane).regs d v;
          m := !m lsr 1;
          incr lane
        done
  | Iop (Add, d, Reg ra, Reg rb) ->
      let d = d lsl 3 and ra = ra lsl 3 and rb = rb lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d (Int64.add (slot_get x ra) (slot_get x rb)));
          m := !m lsr 1;
          incr lane
        done
  | Iop (Add, d, Reg ra, Imm vb) ->
      let d = d lsl 3 and ra = ra lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d (Int64.add (slot_get x ra) vb));
          m := !m lsr 1;
          incr lane
        done
  | Iop (Mul, d, Reg ra, Imm vb) ->
      let d = d lsl 3 and ra = ra lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d (Int64.mul (slot_get x ra) vb));
          m := !m lsr 1;
          incr lane
        done
  | Iop (op, d, Reg ra, Reg rb) ->
      let d = d lsl 3 and ra = ra lsl 3 and rb = rb lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d (exec_iop op (slot_get x ra) (slot_get x rb)));
          m := !m lsr 1;
          incr lane
        done
  | Iop (op, d, Reg ra, Imm vb) ->
      let d = d lsl 3 and ra = ra lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d (exec_iop op (slot_get x ra) vb));
          m := !m lsr 1;
          incr lane
        done
  | Iop (op, d, Imm va, Reg rb) ->
      let d = d lsl 3 and rb = rb lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d (exec_iop op va (slot_get x rb)));
          m := !m lsr 1;
          incr lane
        done
  | Mad (d, Reg ra, Reg rb, Reg rc) ->
      let d = d lsl 3 and ra = ra lsl 3 and rb = rb lsl 3 and rc = rc lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d
               (Int64.add (Int64.mul (slot_get x ra) (slot_get x rb))
                  (slot_get x rc)));
          m := !m lsr 1;
          incr lane
        done
  | Mad (d, Reg ra, Imm vb, Reg rc) ->
      let d = d lsl 3 and ra = ra lsl 3 and rc = rc lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d
               (Int64.add (Int64.mul (slot_get x ra) vb) (slot_get x rc)));
          m := !m lsr 1;
          incr lane
        done
  | Fop (op, ty, d, Reg ra, Reg rb) ->
      let d = d lsl 3 and ra = ra lsl 3 and rb = rb lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d
               (Int64.bits_of_float
                  (exec_fop op ty
                     (Int64.float_of_bits (slot_get x ra))
                     (Int64.float_of_bits (slot_get x rb)))));
          m := !m lsr 1;
          incr lane
        done
  | Fma (F32, d, Reg ra, Reg rb, Reg rc) ->
      let d = d lsl 3 and ra = ra lsl 3 and rb = rb lsl 3 and rc = rc lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             let r =
               (Int64.float_of_bits (slot_get x ra)
               *. Int64.float_of_bits (slot_get x rb))
               +. Int64.float_of_bits (slot_get x rc)
             in
             slot_set x d (Int64.bits_of_float (round_f32 r)));
          m := !m lsr 1;
          incr lane
        done
  | Fma ((F64 | U8 | S8 | U16 | S16 | U32 | S32 | U64 | S64), d,
         Reg ra, Reg rb, Reg rc) ->
      let d = d lsl 3 and ra = ra lsl 3 and rb = rb lsl 3 and rc = rc lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             let r =
               (Int64.float_of_bits (slot_get x ra)
               *. Int64.float_of_bits (slot_get x rb))
               +. Int64.float_of_bits (slot_get x rc)
             in
             slot_set x d (Int64.bits_of_float r));
          m := !m lsr 1;
          incr lane
        done
  | Cvt (dst_ty, src_ty, d, Reg r) ->
      let d = d lsl 3 and r = r lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let x = threads.(!lane).regs in
             slot_set x d (exec_cvt ~dst_ty ~src_ty (slot_get x r)));
          m := !m lsr 1;
          incr lane
        done
  | Setp (c, ty, p, Reg ra, Reg rb) ->
      let ra = ra lsl 3 and rb = rb lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let th = threads.(!lane) in
             th.preds.(p) <-
               exec_cmp c ty (slot_get th.regs ra) (slot_get th.regs rb));
          m := !m lsr 1;
          incr lane
        done
  | Setp (c, ty, p, Reg ra, Imm vb) ->
      let ra = ra lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let th = threads.(!lane) in
             th.preds.(p) <- exec_cmp c ty (slot_get th.regs ra) vb);
          m := !m lsr 1;
          incr lane
        done
  | Selp (d, Reg ra, Reg rb, p) ->
      let d = d lsl 3 and ra = ra lsl 3 and rb = rb lsl 3 in
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let th = threads.(!lane) in
             let x = th.regs in
             slot_set x d (slot_get x (if th.preds.(p) then ra else rb)));
          m := !m lsr 1;
          incr lane
        done
  | Pnot (d, s) ->
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let th = threads.(!lane) in
             th.preds.(d) <- not th.preds.(s));
          m := !m lsr 1;
          incr lane
        done
  | Pand (d, a, b) ->
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let th = threads.(!lane) in
             th.preds.(d) <- (th.preds.(a) && th.preds.(b)));
          m := !m lsr 1;
          incr lane
        done
  | Por (d, a, b) ->
      fun _ threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          (if !m land 1 <> 0 then
             let th = threads.(!lane) in
             th.preds.(d) <- (th.preds.(a) || th.preds.(b)));
          m := !m lsr 1;
          incr lane
        done
  | Mov _ | Iop _ | Mad _ | Fop _ | Fma _ | Funary _ | Cvt _ | Setp _
  | Selp _ ->
      fun env threads mask ->
        let m = ref mask and lane = ref 0 in
        while !m <> 0 do
          if !m land 1 <> 0 then exec_lane env threads.(!lane) i;
          m := !m lsr 1;
          incr lane
        done
  | Ld_param _ | Ld _ | St _ | Atom _ | Bra _ | Bar | Exit | Label _ ->
      fun _ _ _ ->
        Sim_error.error Sim_error.Internal
          "compile_alu: not an ALU instruction: %s" (Ptx.Instr.to_string i)

(* Functional-unit class, for the Fig 4 occupancy statistics. *)
type unit_class = SP | SFU | LDST

let unit_of_instr (i : Ptx.Instr.t) =
  match i with
  | Funary _ -> SFU
  | Ld _ | St _ | Atom _ -> LDST
  | Ld_param _ | Mov _ | Iop _ | Mad _ | Fop _ | Fma _ | Cvt _ | Setp _
  | Selp _ | Pnot _ | Pand _ | Por _ | Bra _ | Bar | Exit | Label _ ->
      SP
