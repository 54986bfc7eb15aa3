(** Functional (trace-based) simulator.

    Executes launches without timing, recording the event counts the
    paper measured with the CUDA profiler (Tables I/III, Figs 1 and 9)
    and the address-trace locality metrics (Figs 10-12): per-128B-block
    access counts, the set of CTAs touching each block, and the derived
    cold-miss / inter-CTA-sharing / CTA-distance statistics. *)

type cls = Dataflow.Classify.load_class

(** Per-128B-block record; [bl_ctas] is the sorted list of distinct
    linearized CTA ids that touched the block. *)
type block_info = {
  mutable bl_count : int;
  mutable bl_ctas : int list;
  mutable bl_nctas : int;
}

type t = {
  cfg : Config.t;
  mutable warp_insts : int;
  mutable thread_insts : int;
  gld_warps : int array;  (** warp-level global loads, by class (D/N) *)
  gld_requests : int array;  (** coalesced requests, by class *)
  gld_active_threads : int array;
  gld_warps_by_pc : (string * int, int) Hashtbl.t;
      (** (kernel, pc) -> executed warp-level loads *)
  gld_requests_by_pc : (string * int, int) Hashtbl.t;
  mutable shared_load_warps : int;
  mutable global_store_warps : int;
  mutable atom_warps : int;
  blocks : (int, block_info) Hashtbl.t;
  mutable block_accesses : int;
  l1s : Simplecache.t array;
  l2 : Simplecache.t;
  mutable l2_queries : int;  (** line-granularity L2 queries *)
  mutable l2_sector_queries : int;  (** 32B-sector granularity *)
  mutable l2_hits : int;
  mutable ctas_run : int;
  mutable capped : bool;  (** stopped at the instruction cap *)
}

val create : Config.t -> t

val run_into : t -> ?max_warp_insts:int -> Launch.t -> unit
(** Run one launch, accumulating into [t] (multi-kernel applications
    share one stats object across launches). *)

val run : ?cfg:Config.t -> ?max_warp_insts:int -> Launch.t -> t

(** {1 Lean paths}

    The loop behind {!run_into} — CTAs in linear order, warps
    round-robin between barriers — with no statistics object: no
    caches, no block table, no per-PC tables.  Memory effects are
    identical to {!run_into}'s. *)

val count_requests : warp_size:int -> line_size:int -> Launch.t -> int * int
(** Execute one launch and return its coalesced global load/atomic
    requests by class, [(deterministic, non-deterministic)] — the
    [gld_requests] deltas a {!run_into} of the launch would add. *)

val execute : warp_size:int -> Launch.t -> unit
(** Execute one launch for its effect on memory alone. *)

(** {1 Derived metrics} *)

val total_gld_warps : t -> int

val requests_per_warp_of_pc : t -> kernel:string -> pc:int -> float option
(** Measured requests per warp of one load instruction, when it
    executed. *)

val deterministic_fraction : t -> float
(** Fig 1: fraction of executed global-load warps classified
    deterministic. *)

val requests_per_warp : t -> cls -> float
val requests_per_active_thread : t -> cls -> float

val shared_per_global : t -> float
(** Fig 9: shared-memory loads per global load. *)

val cold_miss_ratio : t -> float
(** Fig 10: first touches of distinct 128B blocks / total block
    accesses. *)

val avg_accesses_per_block : t -> float

(** Fig 11 metrics. *)
type sharing = {
  sh_block_ratio : float;  (** blocks touched by >= 2 CTAs / all blocks *)
  sh_access_ratio : float;  (** accesses to such blocks / all accesses *)
  sh_avg_ctas : float;  (** avg #CTAs per multi-CTA block *)
}

val sharing : t -> sharing

val cta_distance_histogram : t -> (int * float) list
(** Fig 12: distance between consecutive distinct CTA ids (sorted) over
    shared blocks, as (distance, fraction) pairs sorted by distance. *)

(** Table III style profiler counters. *)
type counters = {
  gld_request : int;
  shared_load : int;
  l1_global_load_hit : int;
  l1_global_load_miss : int;
  l2_read_hits : int;
  l2_read_queries : int;
  l2_read_sector_queries : int;  (** profiler-style 32B sector counts *)
}

val counters : t -> counters
