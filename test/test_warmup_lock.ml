(* Warmup-lock suite: the perf-lock configuration with the warmup
   pre-pass on.  Every app of the suite must choose the same first
   cycle-simulated launch and produce the same Stats.t JSON digest as
   the goldens recorded before the lean pre-pass replaced the
   full-record functional pass (test/goldens/warmup_lock.golden).  A
   mismatch means the pre-pass counts, the launch choice or the
   fast-forward into it changed; regenerate only for a deliberate
   change, via `gen_perf_lock.exe warmup`. *)

let golden_path = "goldens/warmup_lock.golden"

let goldens = lazy (Perf_lock.read_warmup_golden golden_path)

let check_app name =
  let want =
    match List.assoc_opt name (Lazy.force goldens) with
    | Some d -> d
    | None -> Alcotest.failf "no warmup golden entry for %s" name
  in
  let got = Perf_lock.warmup_digest_app (Workloads.Suite.find name) in
  Alcotest.(check int)
    (name ^ ": warmup skip index")
    want.Perf_lock.wd_skip got.Perf_lock.wd_skip;
  Alcotest.(check string)
    (name ^ ": Stats.t JSON digest")
    want.Perf_lock.wd_stats got.Perf_lock.wd_stats

let test_covers_suite () =
  Alcotest.(check int)
    "golden file covers the whole suite"
    (List.length Workloads.Suite.all)
    (List.length (Lazy.force goldens))

let app_cases =
  List.map
    (fun (a : Workloads.App.t) ->
      let name = a.Workloads.App.name in
      Alcotest.test_case name `Quick (fun () -> check_app name))
    Workloads.Suite.all

let () =
  Alcotest.run "warmup_lock"
    [
      ( "coverage",
        [ Alcotest.test_case "suite coverage" `Quick test_covers_suite ] );
      ("warmup-identity", app_cases);
    ]
