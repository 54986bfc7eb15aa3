(* Equivalence of Funcsim's lean paths with the full-record pass.

   The warmup pre-pass counts requests with [Funcsim.count_requests]
   and the timing run fast-forwards past skipped launches with
   [Funcsim.execute]; both must be the full-record [Funcsim.run_into]
   with the bookkeeping taken out.  Every app of the suite runs to
   completion at small scale three times, once per path, and:

   - the per-launch (D, N) request counts of the lean pass equal the
     [gld_requests] deltas [run_into] adds for the same launch;
   - all three runs yield the same launch sequence (iterative apps
     choose their next launch from memory, so a divergence shows);
   - the final global memory of each lean run equals [run_into]'s byte
     for byte, and the host-reference [App.check] passes on it. *)

module App = Workloads.App

let scale = App.Small
let cfg = Gsim.Config.default

(* Drive one fresh run of [app], handing each launch to [f]; returns
   the run and [f]'s results in launch order. *)
let drive (app : App.t) f =
  let run = app.App.make scale in
  let rec go acc =
    match run.App.next_launch () with
    | None -> (run, List.rev acc)
    | Some launch -> go (f launch :: acc)
  in
  go []

let kname (l : Gsim.Launch.t) = l.Gsim.Launch.kernel.Ptx.Kernel.kname

let check_app name () =
  let app = Workloads.Suite.find name in
  let fs = Gsim.Funcsim.create cfg in
  let full_run, full =
    drive app (fun launch ->
        let r = fs.Gsim.Funcsim.gld_requests in
        let d0 = r.(0) and n0 = r.(1) in
        Gsim.Funcsim.run_into fs launch;
        (kname launch, (r.(0) - d0, r.(1) - n0)))
  in
  let warp_size = cfg.Gsim.Config.warp_size in
  let line_size = cfg.Gsim.Config.line_size in
  let count_run, counted =
    drive app (fun launch ->
        ( kname launch,
          Gsim.Funcsim.count_requests ~warp_size ~line_size launch ))
  in
  let exec_run, executed =
    drive app (fun launch ->
        Gsim.Funcsim.execute ~warp_size launch;
        kname launch)
  in
  Alcotest.(check bool) "full pass not capped" false fs.Gsim.Funcsim.capped;
  Alcotest.(check (list (pair string (pair int int))))
    "per-launch D/N requests" full counted;
  Alcotest.(check (list string))
    "launch sequence under execute" (List.map fst full) executed;
  let same_memory (r : App.run) =
    Gsim.Mem.equal full_run.App.global r.App.global
  in
  Alcotest.(check bool) "count_requests memory = run_into memory" true
    (same_memory count_run);
  Alcotest.(check bool) "execute memory = run_into memory" true
    (same_memory exec_run);
  Alcotest.(check bool) "check after run_into" true (full_run.App.check ());
  Alcotest.(check bool) "check after count_requests" true
    (count_run.App.check ());
  Alcotest.(check bool) "check after execute" true (exec_run.App.check ())

(* [Mem.equal] itself: contents, not watermarks, decide equality. *)
let test_mem_equal () =
  let a = Gsim.Mem.create 1_000_000 and b = Gsim.Mem.create 1_000_000 in
  Alcotest.(check bool) "fresh memories are equal" true (Gsim.Mem.equal a b);
  Gsim.Mem.set_u32 a 900_000 0;
  Alcotest.(check bool) "writing a zero changes nothing" true
    (Gsim.Mem.equal a b);
  Gsim.Mem.set_u32 b 4 7;
  Alcotest.(check bool) "a differing byte is seen" false (Gsim.Mem.equal a b);
  Gsim.Mem.set_u32 a 4 7;
  Alcotest.(check bool) "equal again" true (Gsim.Mem.equal a b);
  Gsim.Mem.set_u32 a 999_996 1;
  Alcotest.(check bool) "a differing last word is seen" false
    (Gsim.Mem.equal a b);
  Alcotest.(check bool) "sizes differ" false
    (Gsim.Mem.equal (Gsim.Mem.create 8) (Gsim.Mem.create 16))

let () =
  Alcotest.run "lean"
    [
      ("mem", [ Alcotest.test_case "Mem.equal" `Quick test_mem_equal ]);
      ( "lean-vs-full",
        List.map
          (fun (a : App.t) ->
            let name = a.App.name in
            Alcotest.test_case name `Quick (check_app name))
          Workloads.Suite.all );
    ]
