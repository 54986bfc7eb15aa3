(* Flat byte-addressable memories.  Global memory is one Bytes buffer
   shared by all CTAs; shared/local memories are small per-CTA buffers.
   Register values are 64-bit; floats travel as IEEE-754 bit patterns
   (f32 values are rounded through 32 bits on store/load). *)

(* The buffer is zeroed lazily: [zeroed] bytes from the start are
   known-zero (or since overwritten); anything beyond is uninitialized
   [Bytes.create] garbage that no access has ever seen.  Applications
   allocate tens of MB of address space but often touch only a few MB,
   and an eager memset of the whole buffer dominated their setup time;
   the watermark bounds total zeroing work by the touched range (plus
   one chunk) instead of the capacity. *)
type t = { data : Bytes.t; size : int; mutable zeroed : int }

let zero_chunk = 256 * 1024

let create size = { data = Bytes.create size; size; zeroed = 0 }

let size t = t.size

(* Extend the zeroed prefix to cover [limit) in chunk-sized steps. *)
let extend_zero t limit =
  let upto = min t.size ((limit + zero_chunk - 1) land lnot (zero_chunk - 1)) in
  Bytes.fill t.data t.zeroed (upto - t.zeroed) '\000';
  t.zeroed <- upto

let check t addr len =
  if addr < 0 || addr + len > t.size then
    Sim_error.error Sim_error.Mem_fault
      "access [%d,+%d) out of bounds [0,%d)" addr len t.size;
  if addr + len > t.zeroed then extend_zero t (addr + len)

(* Unchecked 8-byte access to a register slot (see [Exec.thread]). *)
external slot_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external slot_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* All loads zero-extend into the 64-bit register except the signed
   narrow types, which sign-extend (as PTX ld.sN does).  [get]/[put]
   are the unchecked bodies shared by the boxed entry points and the
   register-slot ones; inlined, they keep the value unboxed. *)
let[@inline] get t (ty : Ptx.Types.dtype) addr =
  let open Ptx.Types in
  match ty with
  | U8 -> Int64.of_int (Char.code (Bytes.get t.data addr))
  | S8 -> Int64.of_int (Bytes.get_int8 t.data addr)
  | U16 -> Int64.of_int (Bytes.get_uint16_le t.data addr)
  | S16 -> Int64.of_int (Bytes.get_int16_le t.data addr)
  | U32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data addr)) 0xFFFFFFFFL
  | S32 -> Int64.of_int32 (Bytes.get_int32_le t.data addr)
  | U64 | S64 -> Bytes.get_int64_le t.data addr
  | F32 ->
      (* widen to double bits for the register file *)
      Int64.bits_of_float
        (Int32.float_of_bits (Bytes.get_int32_le t.data addr))
  | F64 -> Bytes.get_int64_le t.data addr

let[@inline] put t (ty : Ptx.Types.dtype) addr v =
  let open Ptx.Types in
  match ty with
  | U8 | S8 -> Bytes.set_int8 t.data addr (Int64.to_int v land 0xFF)
  | U16 | S16 -> Bytes.set_uint16_le t.data addr (Int64.to_int v land 0xFFFF)
  | U32 | S32 -> Bytes.set_int32_le t.data addr (Int64.to_int32 v)
  | U64 | S64 -> Bytes.set_int64_le t.data addr v
  | F32 ->
      Bytes.set_int32_le t.data addr
        (Int32.bits_of_float (Int64.float_of_bits v))
  | F64 -> Bytes.set_int64_le t.data addr v

let load t ty addr =
  check t addr (Ptx.Types.dtype_size ty);
  get t ty addr

let store t ty addr v =
  check t addr (Ptx.Types.dtype_size ty);
  put t ty addr v

let load_into t ty addr regs off =
  check t addr (Ptx.Types.dtype_size ty);
  slot_set regs off (get t ty addr)

let store_from t ty addr regs off =
  check t addr (Ptx.Types.dtype_size ty);
  put t ty addr (slot_get regs off)

let[@inline] atomic_value (op : Ptx.Types.atomop) old v =
  match op with
  | Aadd -> Int64.add old v
  | Amin -> if Int64.compare old v <= 0 then old else v
  | Amax -> if Int64.compare old v >= 0 then old else v
  | Aexch -> v
  | Acas -> v (* compare value handled by the caller if needed *)

let atomic_into t op ty addr v regs off =
  check t addr (Ptx.Types.dtype_size ty);
  let old = get t ty addr in
  put t ty addr (atomic_value op old v);
  slot_set regs off old

(* Byte-for-byte equality of contents.  Bytes past a watermark are
   logically zero, so both buffers are first zeroed up to the higher
   watermark (which leaves their contents unchanged). *)
let equal a b =
  a.size = b.size
  &&
  let z = max a.zeroed b.zeroed in
  if a.zeroed < z then extend_zero a z;
  if b.zeroed < z then extend_zero b z;
  let rec go i =
    if i + 8 <= z then
      Bytes.get_int64_le a.data i = Bytes.get_int64_le b.data i && go (i + 8)
    else if i < z then Bytes.get a.data i = Bytes.get b.data i && go (i + 1)
    else true
  in
  go 0

(* Convenience host-side accessors for initializing datasets and
   checking results. *)
let get_u32 t addr = Int64.to_int (load t Ptx.Types.U32 addr)
let set_u32 t addr v = store t Ptx.Types.U32 addr (Int64.of_int v)
let get_f32 t addr = Int64.float_of_bits (load t Ptx.Types.F32 addr)
let set_f32 t addr v = store t Ptx.Types.F32 addr (Int64.bits_of_float v)
let get_i64 t addr = load t Ptx.Types.U64 addr
let set_i64 t addr v = store t Ptx.Types.U64 addr v
let get_f64 t addr = Int64.float_of_bits (load t Ptx.Types.F64 addr)
let set_f64 t addr v = store t Ptx.Types.F64 addr (Int64.bits_of_float v)
