(* Golden-digest generator for the perf-lock differential suite.

   Runs every app of the suite through the timing simulator at the
   pinned configuration of perf_lock.ml and prints one line per app.
   With no argument it prints the warmup-off lock

     <app> <stats_md5> <profile_md5> <trace_md5>

   whose digests cover the full Stats.t JSON document, the Profile.t
   JSON document, and the complete JSONL trace event stream.  With the
   argument [warmup] it prints the warmup-on lock

     <app> <skip> <stats_md5>

   where <skip> is the launch index the warmup pre-pass chose.  The
   outputs are committed as test/goldens/perf_lock.golden and
   test/goldens/warmup_lock.golden; test_perf_lock and test_warmup_lock
   re-run the same configurations and assert identical lines, so any
   core change that perturbs timing or the pre-pass's launch choice —
   however slightly — fails loudly.

   Regenerate (only when such a change is *intended* and reviewed):

     dune exec test/gen_perf_lock.exe > test/goldens/perf_lock.golden
     dune exec test/gen_perf_lock.exe -- warmup \
       > test/goldens/warmup_lock.golden *)

let () =
  let warmup = Array.length Sys.argv > 1 && Sys.argv.(1) = "warmup" in
  List.iter
    (fun (a : Workloads.App.t) ->
      let name = a.Workloads.App.name in
      let app = Workloads.Suite.find name in
      if warmup then
        let d = Perf_lock.warmup_digest_app app in
        Printf.printf "%s %d %s\n" name d.Perf_lock.wd_skip
          d.Perf_lock.wd_stats
      else
        let d = Perf_lock.digest_app app in
        Printf.printf "%s %s %s %s\n" name d.Perf_lock.dg_stats
          d.Perf_lock.dg_profile d.Perf_lock.dg_trace)
    Workloads.Suite.all
