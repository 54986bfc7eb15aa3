(** A warp: [warp_size] threads in lockstep under a post-dominator
    SIMT reconvergence stack (as in GPGPU-Sim).

    [step] executes exactly one warp instruction {e functionally} —
    registers, memory values and control flow resolve immediately — and
    reports what happened, so a caller can model timing on top (the
    cycle simulator) or just record a trace (the functional one). *)

open Ptx.Types

type mem_kind = Load | Store | Atomic

(** A warp-level memory operation: which lanes were active and the
    per-lane effective byte addresses.  Each warp owns one [mem_op]
    (and the [S_mem] holding it) that every memory step rewrites, so
    stepping allocates no result: consume it before stepping the warp
    again (both simulators do so in the same call frame). *)
type mem_op = {
  mutable m_pc : int;
  mutable m_space : space;
  mutable m_kind : mem_kind;
  mutable m_dtype : dtype;
  mutable m_mask : int;
  m_addrs : int array;
}

type step_result =
  | S_alu of Exec.unit_class  (** SP or SFU instruction completed *)
  | S_mem of mem_op
  | S_barrier
  | S_exit_partial  (** some lanes finished; the warp continues *)
  | S_exit_warp  (** all lanes finished *)

(** The memories this warp's CTA can see. *)
type mem_iface = {
  m_global : Mem.t;  (** also serves const/tex/param and atomics *)
  m_shared : Mem.t;
  m_local : Mem.t;
}

type t = {
  warp_id : int;
  cta_lin : int;
  kernel : Ptx.Kernel.t;
  decode : Decode.t;  (** predecoded per-pc tables, shared per launch *)
  env : Exec.env;
  threads : Exec.thread array;
  valid_mask : int;
  params : (string, int64) Hashtbl.t;
  reconv_of_pc : int array;
  mem : mem_iface;
  mop : mem_op;  (** rewritten by every memory step *)
  mem_step : step_result;  (** [S_mem mop], returned by memory steps *)
  mutable stack : entry list;
  mutable warp_insts : int;
  mutable thread_insts : int;
}

and entry = { mutable spc : int; smask : int; sreconv : int }

val popcount : int -> int
val full_mask : int -> int

val reconvergence_table : Ptx.Kernel.t -> int array
(** Per-pc reconvergence points from the post-dominator tree; -1 for
    non-branches and branches that reconverge only at exit.  Computed
    once per kernel and shared by all warps. *)

val create :
  warp_id:int ->
  cta_lin:int ->
  decode:Decode.t ->
  env:Exec.env ->
  threads:Exec.thread array ->
  valid_mask:int ->
  params:(string, int64) Hashtbl.t ->
  reconv_of_pc:int array ->
  mem:mem_iface ->
  Ptx.Kernel.t ->
  t

val finished : t -> bool
val pc : t -> int
val active_mask : t -> int
val iter_active : int -> (int -> unit) -> unit

val peek_unit : t -> Exec.unit_class
(** Functional unit the next instruction occupies, without executing
    it (the SM issue stage's structural-hazard check). *)

val step : t -> step_result
(** Execute one warp instruction.  The warp must not be finished. *)
