(* Unit and property tests of the instruction semantics (Exec), the
   typed memory (Mem), and the Bitset used by the dataflow analyses. *)

open Ptx.Types

let env =
  { Gsim.Exec.ctaid = (3, 1, 0); ntid = (32, 2, 1); nctaid = (8, 4, 1);
    warp_in_cta = 1 }

let thread ?(regs = 8) ?(preds = 2) () =
  { Gsim.Exec.regs = Gsim.Exec.make_regs regs; preds = Array.make preds false;
    tid = (5, 1, 0); lane = 5 }

(* ---------------- operand evaluation ---------------- *)

let test_sreg_values () =
  let th = thread () in
  let ev o = Gsim.Exec.eval_operand env th o in
  Alcotest.(check int64) "tid.x" 5L (ev (Sreg (Tid X)));
  Alcotest.(check int64) "tid.y" 1L (ev (Sreg (Tid Y)));
  Alcotest.(check int64) "ctaid.x" 3L (ev (Sreg (Ctaid X)));
  Alcotest.(check int64) "ntid.x" 32L (ev (Sreg (Ntid X)));
  Alcotest.(check int64) "nctaid.y" 4L (ev (Sreg (Nctaid Y)));
  Alcotest.(check int64) "laneid" 5L (ev (Sreg Laneid));
  Alcotest.(check int64) "warpid" 1L (ev (Sreg Warpid));
  Alcotest.(check int64) "imm" 42L (ev (Imm 42L));
  Gsim.Exec.set_reg th 3 7L;
  Alcotest.(check int64) "reg" 7L (ev (Reg 3))

let test_eval_addr () =
  let th = thread () in
  Gsim.Exec.set_reg th 0 1000L;
  Alcotest.(check int) "base+offset" 1016
    (Gsim.Exec.eval_addr env th { abase = Reg 0; aoffset = 16 })

(* ---------------- integer semantics ---------------- *)

let test_iop_semantics () =
  let x = Gsim.Exec.exec_iop in
  Alcotest.(check int64) "add" 7L (x Add 3L 4L);
  Alcotest.(check int64) "sub" (-1L) (x Sub 3L 4L);
  Alcotest.(check int64) "mul" 12L (x Mul 3L 4L);
  Alcotest.(check int64) "div" 3L (x Div 13L 4L);
  Alcotest.(check int64) "div by zero is 0" 0L (x Div 13L 0L);
  Alcotest.(check int64) "rem" 1L (x Rem 13L 4L);
  Alcotest.(check int64) "rem by zero is 0" 0L (x Rem 13L 0L);
  Alcotest.(check int64) "min" 3L (x Min 3L 4L);
  Alcotest.(check int64) "max" 4L (x Max 3L 4L);
  Alcotest.(check int64) "and" 0b100L (x Band 0b110L 0b101L);
  Alcotest.(check int64) "or" 0b111L (x Bor 0b110L 0b101L);
  Alcotest.(check int64) "xor" 0b011L (x Bxor 0b110L 0b101L);
  Alcotest.(check int64) "shl" 48L (x Shl 3L 4L);
  Alcotest.(check int64) "shr is logical" 1L (x Shr Int64.min_int 63L)

let prop_mulhi =
  QCheck.Test.make ~count:500 ~name:"mulhi64 matches 128-bit reference"
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (a, b) ->
      (* for values fitting in 31 bits the high half of the product is 0,
         and for shifted values it's computable exactly *)
      let a64 = Int64.of_int a and b64 = Int64.of_int b in
      let small = Gsim.Exec.mulhi64 a64 b64 = 0L in
      (* (a << 32) * (b << 32) has high half a*b *)
      let big =
        Gsim.Exec.mulhi64 (Int64.shift_left a64 32) (Int64.shift_left b64 32)
        = Int64.mul a64 b64
      in
      small && big)

let test_cmp_signedness () =
  let c = Gsim.Exec.exec_cmp in
  (* -1 as u32 bit pattern: 0xFFFFFFFF *)
  Alcotest.(check bool) "signed lt" true (c Lt S64 (-1L) 1L);
  Alcotest.(check bool) "unsigned lt flips" false (c Lt U64 (-1L) 1L);
  Alcotest.(check bool) "unsigned 0xFFFFFFFF > 1" true (c Gt U32 0xFFFFFFFFL 1L);
  (* float compare through bit patterns *)
  let f v = Int64.bits_of_float v in
  Alcotest.(check bool) "float lt" true (c Lt F32 (f 1.5) (f 2.5));
  Alcotest.(check bool) "float ge" true (c Ge F64 (f 2.5) (f 2.5))

let test_cvt () =
  let cv ~dst_ty ~src_ty v = Gsim.Exec.exec_cvt ~dst_ty ~src_ty v in
  Alcotest.(check int64) "u8 narrows" 0xCDL (cv ~dst_ty:U8 ~src_ty:U32 0xABCDL);
  Alcotest.(check int64) "s8 sign-extends" (-1L) (cv ~dst_ty:S8 ~src_ty:U32 0xFFL);
  Alcotest.(check int64) "s16 sign-extends" (-2L)
    (cv ~dst_ty:S16 ~src_ty:U32 0xFFFEL);
  Alcotest.(check int64) "s32 sign-extends" (-1L)
    (cv ~dst_ty:S32 ~src_ty:U64 0xFFFFFFFFL);
  (* int -> float -> int round trip *)
  let as_f = cv ~dst_ty:F32 ~src_ty:S32 12L in
  Alcotest.(check (float 0.001)) "s32 -> f32" 12.0 (Int64.float_of_bits as_f);
  Alcotest.(check int64) "f32 -> s32 truncates" 12L
    (cv ~dst_ty:S32 ~src_ty:F32 (Int64.bits_of_float 12.9))

let test_atom_semantics () =
  let a = Gsim.Mem.atomic_value in
  Alcotest.(check int64) "add" 10L (a Aadd 7L 3L);
  Alcotest.(check int64) "min keeps old" 3L (a Amin 3L 7L);
  Alcotest.(check int64) "min takes new" 3L (a Amin 7L 3L);
  Alcotest.(check int64) "max" 7L (a Amax 7L 3L);
  Alcotest.(check int64) "exch" 3L (a Aexch 7L 3L)

let test_f32_rounding () =
  (* exec_fop rounds F32 results but not F64 *)
  let tiny = 1e-10 in
  let r32 = Gsim.Exec.exec_fop Fadd F32 1.0 tiny in
  let r64 = Gsim.Exec.exec_fop Fadd F64 1.0 tiny in
  Alcotest.(check (float 0.0)) "f32 absorbs the tiny addend" 1.0 r32;
  Alcotest.(check bool) "f64 keeps it" true (r64 > 1.0)

(* ---------------- typed memory ---------------- *)

let test_mem_typed_access () =
  let m = Gsim.Mem.create 64 in
  Gsim.Mem.store m S8 0 (-5L);
  Alcotest.(check int64) "s8 sign-extends on load" (-5L) (Gsim.Mem.load m S8 0);
  Alcotest.(check int64) "u8 zero-extends" 251L (Gsim.Mem.load m U8 0);
  Gsim.Mem.store m U32 4 0xDEADBEEFL;
  Alcotest.(check int64) "u32" 0xDEADBEEFL (Gsim.Mem.load m U32 4);
  Alcotest.(check int64) "s32 sign-extends" (Int64.of_int32 0xDEADBEEFl)
    (Gsim.Mem.load m S32 4);
  Gsim.Mem.set_f32 m 8 3.25;
  Alcotest.(check (float 0.0)) "f32 round-trip" 3.25 (Gsim.Mem.get_f32 m 8);
  Gsim.Mem.set_f64 m 16 Float.pi;
  Alcotest.(check (float 0.0)) "f64 round-trip" Float.pi (Gsim.Mem.get_f64 m 16);
  Gsim.Mem.set_i64 m 24 Int64.min_int;
  Alcotest.(check int64) "i64 round-trip" Int64.min_int (Gsim.Mem.get_i64 m 24)

(* out-of-bounds accesses raise a structured mem-fault, not a bare
   Invalid_argument *)
let test_mem_bounds () =
  let m = Gsim.Mem.create 16 in
  let expect_fault name range f =
    match f () with
    | _ -> Alcotest.failf "%s: expected a mem fault" name
    | exception Gsim.Sim_error.Error e ->
        Alcotest.(check bool) (name ^ ": kind") true
          (e.Gsim.Sim_error.e_kind = Gsim.Sim_error.Mem_fault);
        let msg = Gsim.Sim_error.to_string e in
        let contains sub =
          let n = String.length sub and l = String.length msg in
          let rec go i =
            i + n <= l && (String.sub msg i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) (name ^ ": names the range") true
          (contains range)
  in
  expect_fault "read past end" "[13,+4)" (fun () ->
      Gsim.Mem.load m U32 13);
  expect_fault "negative address" "[-1,+1)" (fun () ->
      Gsim.Mem.load m U8 (-1))

let prop_mem_roundtrip_f32 =
  QCheck.Test.make ~count:300 ~name:"f32 memory round-trip"
    QCheck.(float_bound_exclusive 1e6)
    (fun f ->
      let m = Gsim.Mem.create 8 in
      Gsim.Mem.set_f32 m 0 f;
      Gsim.Mem.get_f32 m 0 = Gsim.Exec.round_f32 f)

(* ---------------- register slots ---------------- *)

(* Values a register must carry bit for bit: the extremes, and NaN
   patterns (quiet, signalling, negative) that a float round trip could
   canonicalize. *)
let special_int64s =
  [ 0L; 1L; -1L; Int64.min_int; Int64.max_int;
    Int64.bits_of_float Float.nan; 0x7FF8000000000001L; 0x7FF0000000000001L;
    0xFFF8000000000000L; 0xFFFFFFFFFFFFFFFFL ]

(* Each register keeps exactly what was written to it, whatever its
   neighbours hold. *)
let check_reg_roundtrip vs =
  let nregs = List.length vs in
  let th = thread ~regs:nregs () in
  List.iteri (fun r v -> Gsim.Exec.set_reg th r v) vs;
  List.iteri
    (fun r v ->
      if Gsim.Exec.reg th r <> v then
        QCheck.Test.fail_reportf "r%d: wrote %Lx, read %Lx" r v
          (Gsim.Exec.reg th r))
    vs;
  true

let test_reg_special_values () =
  ignore (check_reg_roundtrip special_int64s : bool);
  let th = thread () in
  Alcotest.(check int64) "fresh registers are zero" 0L (Gsim.Exec.reg th 7)

let prop_reg_roundtrip =
  QCheck.Test.make ~count:300 ~name:"register slots round-trip int64"
    QCheck.(list_of_size Gen.(int_range 1 16) int64)
    check_reg_roundtrip

(* ---------------- register-slot memory entry points ---------------- *)

let all_dtypes = [ U8; S8; U16; S16; U32; S32; U64; S64; F32; F64 ]
let mem_size = 64

(* A memory filled with the given 64-bit words. *)
let mem_of_words words =
  let m = Gsim.Mem.create mem_size in
  List.iteri (fun i w -> Gsim.Mem.set_i64 m (8 * i) w) words;
  m

(* dtype, contents, in-bounds address, register slot, value *)
let gen_slot_case =
  QCheck.(
    quad
      (make ~print:Ptx.Types.string_of_dtype (Gen.oneofl all_dtypes))
      (list_of_size (Gen.return (mem_size / 8)) int64)
      (pair (int_bound (mem_size - 8)) (int_bound 3))
      (make ~print:Int64.to_string
         (Gen.oneof [ Gen.oneofl special_int64s; Gen.ui64 ])))

let prop_load_into_matches_load =
  QCheck.Test.make ~count:1000 ~name:"Mem.load_into = Mem.load into a slot"
    gen_slot_case
    (fun (ty, words, (addr, slot), v) ->
      let m = mem_of_words words in
      let th = thread ~regs:4 () in
      List.iter (fun r -> Gsim.Exec.set_reg th r v) [ 0; 1; 2; 3 ];
      Gsim.Mem.load_into m ty addr th.Gsim.Exec.regs (slot lsl 3);
      Gsim.Exec.reg th slot = Gsim.Mem.load m ty addr
      && List.for_all
           (fun r -> r = slot || Gsim.Exec.reg th r = v)
           [ 0; 1; 2; 3 ])

let prop_store_from_matches_store =
  QCheck.Test.make ~count:1000 ~name:"Mem.store_from = Mem.store of a slot"
    gen_slot_case
    (fun (ty, words, (addr, slot), v) ->
      let expected = mem_of_words words and m = mem_of_words words in
      Gsim.Mem.store expected ty addr v;
      let th = thread ~regs:4 () in
      Gsim.Exec.set_reg th slot v;
      Gsim.Mem.store_from m ty addr th.Gsim.Exec.regs (slot lsl 3);
      Gsim.Mem.equal expected m)

let prop_atomic_into_matches_rmw =
  QCheck.Test.make ~count:1000
    ~name:"Mem.atomic_into = load, atomic_value, store"
    QCheck.(
      pair gen_slot_case
        (make (Gen.oneofl [ Aadd; Amin; Amax; Aexch; Acas ])))
    (fun ((ty, words, (addr, slot), v), op) ->
      let expected = mem_of_words words and m = mem_of_words words in
      let old = Gsim.Mem.load expected ty addr in
      Gsim.Mem.store expected ty addr (Gsim.Mem.atomic_value op old v);
      let th = thread ~regs:4 () in
      Gsim.Mem.atomic_into m op ty addr v th.Gsim.Exec.regs (slot lsl 3);
      Gsim.Exec.reg th slot = old && Gsim.Mem.equal expected m)

(* The widening rules, spelled out: signed narrow types sign-extend,
   unsigned ones (U32 included) zero-extend, F32 widens to double bits. *)
let test_load_into_widening () =
  let m = Gsim.Mem.create 16 in
  Gsim.Mem.set_u32 m 0 0xFFFFFFFF;
  Gsim.Mem.set_f32 m 8 1.5;
  let th = thread () in
  let ld ty addr =
    Gsim.Mem.load_into m ty addr th.Gsim.Exec.regs (2 lsl 3);
    Gsim.Exec.reg th 2
  in
  Alcotest.(check int64) "s8 sign-extends" (-1L) (ld S8 0);
  Alcotest.(check int64) "u8 zero-extends" 0xFFL (ld U8 0);
  Alcotest.(check int64) "s16 sign-extends" (-1L) (ld S16 0);
  Alcotest.(check int64) "s32 sign-extends" (-1L) (ld S32 0);
  Alcotest.(check int64) "u32 zero-extends" 0xFFFFFFFFL (ld U32 0);
  Alcotest.(check int64) "f32 widens to double bits"
    (Int64.bits_of_float 1.5) (ld F32 8)

(* The slot entry points keep [Mem]'s bounds check and write nothing
   when it fails. *)
let test_slot_entry_bounds () =
  let m = Gsim.Mem.create 16 in
  let th = thread () in
  Gsim.Exec.set_reg th 1 42L;
  let regs = th.Gsim.Exec.regs and off = 1 lsl 3 in
  let expect_fault name f =
    match f () with
    | () -> Alcotest.failf "%s: expected a mem fault" name
    | exception Gsim.Sim_error.Error e ->
        Alcotest.(check bool) (name ^ ": kind") true
          (e.Gsim.Sim_error.e_kind = Gsim.Sim_error.Mem_fault);
        Alcotest.(check int64) (name ^ ": register untouched") 42L
          (Gsim.Exec.reg th 1);
        Alcotest.(check bool) (name ^ ": memory untouched") true
          (Gsim.Mem.equal m (Gsim.Mem.create 16))
  in
  expect_fault "load_into past end" (fun () ->
      Gsim.Mem.load_into m U32 13 regs off);
  expect_fault "load_into negative" (fun () ->
      Gsim.Mem.load_into m U8 (-1) regs off);
  expect_fault "store_from past end" (fun () ->
      Gsim.Mem.store_from m U64 9 regs off);
  expect_fault "atomic_into past end" (fun () ->
      Gsim.Mem.atomic_into m Aadd U32 16 1L regs off)

(* ---------------- bitset ---------------- *)

let prop_bitset_membership =
  QCheck.Test.make ~count:300 ~name:"bitset add/mem/remove"
    QCheck.(pair (int_range 1 500) (list (int_bound 499)))
    (fun (n, xs) ->
      let xs = List.filter (fun x -> x < n) xs in
      let s = Dataflow.Bitset.create n in
      List.iter (Dataflow.Bitset.add s) xs;
      let all_in = List.for_all (fun x -> Dataflow.Bitset.mem s x) xs in
      let elements_sorted =
        Dataflow.Bitset.elements s = List.sort_uniq compare xs
      in
      List.iter (Dataflow.Bitset.remove s) xs;
      all_in && elements_sorted && Dataflow.Bitset.cardinal s = 0)

let prop_bitset_union_diff =
  QCheck.Test.make ~count:300 ~name:"bitset union/diff laws"
    QCheck.(pair (list (int_bound 199)) (list (int_bound 199)))
    (fun (xs, ys) ->
      let mk l = Dataflow.Bitset.of_list 200 l in
      let a = mk xs and b = mk ys in
      let u = Dataflow.Bitset.copy a in
      ignore (Dataflow.Bitset.union_into ~dst:u ~src:b);
      let expected_union =
        List.sort_uniq compare (xs @ ys)
      in
      let d = Dataflow.Bitset.copy u in
      Dataflow.Bitset.diff_into ~dst:d ~src:b;
      let expected_diff =
        List.filter (fun x -> not (List.mem x ys)) (List.sort_uniq compare xs)
      in
      Dataflow.Bitset.elements u = expected_union
      && Dataflow.Bitset.elements d = expected_diff)

let test_bitset_union_changed () =
  let a = Dataflow.Bitset.of_list 64 [ 1; 2 ] in
  let b = Dataflow.Bitset.of_list 64 [ 2; 3 ] in
  Alcotest.(check bool) "union reports change" true
    (Dataflow.Bitset.union_into ~dst:a ~src:b);
  Alcotest.(check bool) "idempotent union reports no change" false
    (Dataflow.Bitset.union_into ~dst:a ~src:b)

let tests =
  [
    Alcotest.test_case "special registers" `Quick test_sreg_values;
    Alcotest.test_case "address evaluation" `Quick test_eval_addr;
    Alcotest.test_case "integer ops" `Quick test_iop_semantics;
    QCheck_alcotest.to_alcotest prop_mulhi;
    Alcotest.test_case "comparison signedness" `Quick test_cmp_signedness;
    Alcotest.test_case "conversions" `Quick test_cvt;
    Alcotest.test_case "atomic semantics" `Quick test_atom_semantics;
    Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
    Alcotest.test_case "typed memory" `Quick test_mem_typed_access;
    Alcotest.test_case "memory bounds" `Quick test_mem_bounds;
    QCheck_alcotest.to_alcotest prop_mem_roundtrip_f32;
    Alcotest.test_case "register slot special values" `Quick
      test_reg_special_values;
    QCheck_alcotest.to_alcotest prop_reg_roundtrip;
    QCheck_alcotest.to_alcotest prop_load_into_matches_load;
    QCheck_alcotest.to_alcotest prop_store_from_matches_store;
    QCheck_alcotest.to_alcotest prop_atomic_into_matches_rmw;
    Alcotest.test_case "load_into widening" `Quick test_load_into_widening;
    Alcotest.test_case "slot entry points bounds" `Quick
      test_slot_entry_bounds;
    QCheck_alcotest.to_alcotest prop_bitset_membership;
    QCheck_alcotest.to_alcotest prop_bitset_union_diff;
    Alcotest.test_case "bitset union change reporting" `Quick
      test_bitset_union_changed;
  ]

let () = Alcotest.run "exec" [ ("exec", tests) ]
