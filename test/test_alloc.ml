(* Allocation regression test of the functional execution core.

   [Funcsim.execute] is the record-free path behind the warmup
   fast-forward, and the same [Warp.step] drives the cycle loop's issue
   stage, so minor-heap words allocated per executed warp instruction
   measure the execution core itself: the register file, the ALU lane
   loops, the load/store slot paths and the step results.  For a fixed
   build the count is exact (execution is deterministic and nothing
   else runs in between), so the bounds cannot flake; they sit well
   under the counts of a boxed [int64 array] register file (77.7 words
   for 2mm, 154.6 for mriq) and well above the unboxed one (1.7 each),
   leaving headroom for compiler changes.

   [test_alloc.exe words APP] prints one app's count instead. *)

module App = Workloads.App

let scale = App.Small
let warp_size = Gsim.Config.default.Gsim.Config.warp_size

(* Warp instructions of a whole run, from the full-record pass. *)
let warp_insts (app : App.t) =
  let fs = Gsim.Funcsim.create Gsim.Config.default in
  let run = app.App.make scale in
  let rec go () =
    match run.App.next_launch () with
    | None -> fs.Gsim.Funcsim.warp_insts
    | Some launch ->
        Gsim.Funcsim.run_into fs launch;
        go ()
  in
  go ()

(* Minor words allocated inside [Funcsim.execute] over a whole run;
   dataset construction and launch selection are outside the window. *)
let execute_words (app : App.t) =
  let run = app.App.make scale in
  let words = ref 0. in
  let rec go () =
    match run.App.next_launch () with
    | None -> ()
    | Some launch ->
        let w0 = Gc.minor_words () in
        Gsim.Funcsim.execute ~warp_size launch;
        words := !words +. (Gc.minor_words () -. w0);
        go ()
  in
  go ();
  !words

let words_per_inst name =
  let app = Workloads.Suite.find name in
  let n = warp_insts app in
  execute_words app /. float_of_int n

let check_bound name bound () =
  let w = words_per_inst name in
  if w > bound then
    Alcotest.failf "%s: %.1f minor words per warp instruction (bound %.0f)"
      name w bound

let () =
  match Sys.argv with
  | [| _; "words"; name |] -> Printf.printf "%s %.1f\n" name (words_per_inst name)
  | _ ->
      Alcotest.run "alloc"
        [
          ( "execute-words-per-inst",
            [
              Alcotest.test_case "2mm <= 25" `Quick (check_bound "2mm" 25.);
              Alcotest.test_case "mriq <= 50" `Quick (check_bound "mriq" 50.);
            ] );
        ]
