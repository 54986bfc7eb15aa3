(** The memory-access coalescer in front of the L1 (paper Section VI):
    the lane addresses of one warp memory instruction are grouped into
    distinct cache-line requests.  A fully coalesced warp load touches
    one line; a worst-case gather touches one line per active lane. *)

val lines : line_size:int -> mask:int -> addrs:int array -> int list
(** Distinct line addresses touched by the active lanes, in first-lane
    order. *)

val count : line_size:int -> mask:int -> addrs:int array -> int
(** [List.length (lines ~line_size ~mask ~addrs)]. *)

val count_into :
  scratch:int array -> line_size:int -> mask:int -> addrs:int array -> int
(** {!count} without allocating: [scratch] (at least as long as [addrs])
    is overwritten as workspace. *)

val sort_lines : int list -> int list
(** Ascending-address ordering of a coalesced line list — the order
    the IAR reorder unit buffers entries in ({!Mempolicy}).  The
    in-order LD/ST queue keeps first-lane order. *)

val split_lines :
  line_size:int -> width:int -> mask:int -> addrs:int array -> int list list
(** Per-sub-warp line lists under the Section X.A warp-splitting
    ablation ([width] lanes per sub-warp; [width <= 0] disables the
    split).  Empty sub-warps are dropped. *)
