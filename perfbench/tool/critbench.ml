(* critbench: the benchmark's in-process helper (see perfbench/README.md).

     critbench requests SPEC OUT
       Turn job specs into serve-protocol submit lines, built with the
       program's own Config and Protocol code.

     critbench trace SPEC OUT [--doc DOC] [--responses FILE] [--cache-dir DIR]
       Drive every job of SPEC one at a time through the layers' public
       functions, with a span around each call, and write the spans and
       each job's model counters to OUT as JSON lines.

   SPEC holds one JSON object per line:
     {"id": "j3", "app": "bfs", "scale": "default", "policy": "iar",
      "cap": 150000, "warmup": true, "kind": "run"}
   where kind is "run" (a sweep job), "hit" or "miss" (a serve request).

   Every traced result is checked against the reference the CLI
   produced for the same job: the sweep document (--doc, matched by app
   and policy label) or the daemon's raw response lines (--responses,
   matched by id).  Both sides go through a Stats_io round trip before
   they are compared as text.  A mismatch means the traced path measures
   a different program, so the run exits non-zero. *)

module Json = Gsim.Stats_io.Json
module P = Critload.Parsweep

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("critbench: " ^ m); exit 2) fmt

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* ---- job specs ---- *)

type spec = { id : string; kind : string; job : P.job }

let spec_of_line line =
  let v = Json.of_string line in
  let policy =
    match Gsim.Config.policy_of_string (Json.str_field "policy" v) with
    | Ok p -> p
    | Error e -> die "bad policy: %s" e
  in
  let cfg =
    Gsim.Config.default
    |> Gsim.Config.with_caps ~max_warp_insts:(Json.int_field "cap" v) ()
    |> Gsim.Config.with_policy policy
  in
  let job =
    P.job ~label:(Gsim.Config.policy_name policy) ~cfg
      ~warmup:(Json.get_bool (Json.member "warmup" v))
      ~scale:(Workloads.App.scale_of_string (Json.str_field "scale" v))
      (Json.str_field "app" v)
  in
  let kind = match Json.member "kind" v with Json.Str k -> k | _ -> "run" in
  { id = Json.str_field "id" v; kind; job }

let requests spec_path out_path =
  let oc = open_out_bin out_path in
  List.iter
    (fun line ->
      let s = spec_of_line line in
      output_string oc
        (Gsim.Stats_io.Framing.frame
           (Critload.Protocol.request_to_json
              (Critload.Protocol.Submit { id = s.id; job = s.job }))))
    (read_lines spec_path);
  close_out oc

(* ---- spans ----

   Kept in memory and written out when the process finishes.  A job
   runs in a forked child, so span ids carry the job's index in their
   high digits and stay unique across processes. *)

type span = {
  sid : int;
  name : string;
  parent : int;
  sjob : string;
  t0 : float;
  mutable t1 : float;
}

let spans = ref []
let next_sid = ref 1
let stack = ref []
let current_job = ref ""

let span name f =
  let sid = !next_sid in
  incr next_sid;
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  let s =
    { sid; name; parent; sjob = !current_job; t0 = Unix.gettimeofday (); t1 = 0. }
  in
  stack := sid :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Unix.gettimeofday ();
      stack := List.tl !stack;
      spans := s :: !spans)
    f

let span_line s =
  Printf.sprintf
    "{\"type\":\"span\",\"id\":%d,\"name\":%S,\"parent\":%d,\"job\":%S,\"t0\":%.6f,\"t1\":%.6f}\n"
    s.sid s.name s.parent s.sjob s.t0 s.t1

let flush_spans oc =
  List.iter (fun s -> output_string oc (span_line s)) (List.rev !spans);
  spans := []

(* ---- the timing run, layer by layer ----

   A hand copy of [Runner.run_timing] (lib/core/runner.ml), the loop
   every sweep and serve job runs: the pre-pass, a fresh dataset,
   skipped launches run functionally, the rest cycle-simulated.  It is
   a copy so that each launch can sit in its own span; keep it in step
   with the runner's loop.  The Stats check below only catches a copy
   that computes different results; one that merely costs differently
   shows as a traced total far from the CLI's CPU time, which run.py
   flags.  The app's [make] and [next_launch] are wrapped so the dataset
   build and launch construction show as their own spans, also inside
   [Runner.warmup_launches]. *)

let traced_app (app : Workloads.App.t) =
  {
    app with
    Workloads.App.make =
      (fun scale ->
        let run = span "workloads.make" (fun () -> app.Workloads.App.make scale) in
        {
          run with
          Workloads.App.next_launch =
            (fun () -> span "launch.build" run.Workloads.App.next_launch);
        });
  }

let run_timing (j : P.job) =
  let cfg = j.P.sj_cfg and scale = j.P.sj_scale in
  let app = traced_app (Workloads.Suite.find j.P.sj_app) in
  let skip =
    if j.P.sj_warmup then
      span "runner.warmup" (fun () -> Critload.Runner.warmup_launches ~cfg app scale)
    else 0
  in
  let run = app.Workloads.App.make scale in
  let machine = Gsim.Gpu.create_machine ~cfg () in
  let ff = Gsim.Funcsim.create cfg in
  let launches = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match run.Workloads.App.next_launch () with
    | None -> continue_ := false
    | Some launch ->
        (if !launches < skip then
           span "funcsim.skip" (fun () -> Gsim.Funcsim.run_into ff launch)
         else if
           not
             (span "gpu.run_launch" (fun () ->
                  Gsim.Gpu.run_launch machine
                    ~fast_forward:j.P.sj_fast_forward launch))
         then continue_ := false);
        incr launches
  done;
  { P.tm_launches = !launches; tm_stats = machine.Gsim.Gpu.stats; tm_profile = None }

(* Model counters the benchmark aggregates per workload. *)
let counters_json (st : Gsim.Stats.t) =
  let c i = st.Gsim.Stats.per_class.(i) in
  let d = c 0 and n = c 1 in
  let ev i = st.Gsim.Stats.l1_events.(i) in
  Printf.sprintf
    "{\"cycles\":%d,\"warp_insts\":%d,\"l1_access_D\":%d,\"l1_miss_D\":%d,\
     \"l1_access_N\":%d,\"l1_miss_N\":%d,\"l1_resfail\":%d,\"rsrv_wait_N\":%d,\
     \"l2_access\":%d,\"l2_miss\":%d,\"l2_rsrv_fails\":%d,\"warps_N\":%d,\
     \"turnaround_N\":%d}"
    st.Gsim.Stats.cycles st.Gsim.Stats.warp_insts d.Gsim.Stats.cs_l1_access
    d.Gsim.Stats.cs_l1_miss n.Gsim.Stats.cs_l1_access n.Gsim.Stats.cs_l1_miss
    (ev 3 + ev 4 + ev 5) n.Gsim.Stats.cs_rsrv_prev
    (d.Gsim.Stats.cs_l2_access + n.Gsim.Stats.cs_l2_access)
    (d.Gsim.Stats.cs_l2_miss + n.Gsim.Stats.cs_l2_miss)
    st.Gsim.Stats.l2_rsrv_fails n.Gsim.Stats.cs_warps n.Gsim.Stats.cs_turnaround

(* Run one job in a forked child, as a sweep or serve worker does, so
   every job starts from the same runtime state (GC settings included).
   The child ships its spans, counters and encoded payload back through
   a file; the parent returns the payload text. *)
let exec_in_child ~index ~scratch s =
  let part = Printf.sprintf "%s.job%d" scratch index in
  let payload_path = part ^ ".payload" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          next_sid := (index + 1) * 1_000_000;
          spans := [];
          let tm, text =
            span "job" (fun () ->
                let tm = run_timing s.job in
                ( tm,
                  span "stats_io.encode" (fun () ->
                      Json.to_string (P.timing_summary_to_json tm)) ))
          in
          let oc = open_out_bin part in
          Printf.fprintf oc "{\"type\":\"job\",\"job\":%S,\"policy\":%S,\"counters\":%s}\n"
            s.id s.job.P.sj_label (counters_json tm.P.tm_stats);
          flush_spans oc;
          close_out oc;
          let oc = open_out_bin payload_path in
          output_string oc text;
          close_out oc;
          0
        with e ->
          prerr_endline ("critbench: job " ^ s.id ^ ": " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 ->
          let payload = read_file payload_path and lines = read_file part in
          Sys.remove payload_path;
          Sys.remove part;
          (payload, lines)
      | _ -> die "job %s failed in its worker" s.id)

(* ---- references ---- *)

let canonical payload =
  Json.to_string
    (P.timing_summary_to_json (P.timing_summary_of_json (Json.of_string payload)))

let doc_reference path =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      Hashtbl.replace tbl
        (Json.str_field "app" e, Json.str_field "label" e)
        (Json.to_string (Json.member "result" e)))
    (Json.get_list (Json.member "results" (Json.of_string (read_file path))));
  fun s -> Hashtbl.find_opt tbl (s.job.P.sj_app, s.job.P.sj_label)

let responses_reference path =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      let v = Json.of_string line in
      match (Json.member "type" v, Json.member "id" v) with
      | Json.Str "result", Json.Str id ->
          Hashtbl.replace tbl id (Json.to_string (Json.member "result" v))
      | _ -> ())
    (read_lines path);
  fun s -> Hashtbl.find_opt tbl s.id

(* ---- the traced pass ---- *)

let trace ~spec_path ~out_path ~reference ~cache_dir =
  let specs = List.map spec_of_line (read_lines spec_path) in
  let oc = open_out_bin out_path in
  let mismatches = ref 0 and unchecked = ref 0 in
  List.iteri
    (fun index s ->
      current_job := s.id;
      let payload =
        match s.kind with
        | "run" ->
            let text, lines = exec_in_child ~index ~scratch:out_path s in
            output_string oc lines;
            span "stats_io.decode" (fun () -> Json.of_string text)
        | "hit" | "miss" ->
            let dir =
              match cache_dir with Some d -> d | None -> die "--cache-dir is required"
            in
            span "request" (fun () ->
                let job =
                  span "protocol.codec" (fun () ->
                      let line =
                        Json.to_string
                          (Critload.Protocol.request_to_json
                             (Critload.Protocol.Submit { id = s.id; job = s.job }))
                      in
                      match Critload.Protocol.request_of_json (Json.of_string line) with
                      | Ok (Critload.Protocol.Submit { job; _ }) -> job
                      | _ -> die "request %s does not round-trip" s.id)
                in
                ignore (span "parsweep.job_digest" (fun () -> P.job_digest job));
                let payload =
                  match span "parsweep.cache_probe" (fun () -> P.cache_probe ~dir job) with
                  | P.Cache_hit p when s.kind = "hit" -> p
                  | P.Cache_miss when s.kind = "miss" ->
                      let text, lines = exec_in_child ~index ~scratch:out_path s in
                      output_string oc lines;
                      let p = span "stats_io.decode" (fun () -> Json.of_string text) in
                      span "parsweep.cache_store" (fun () -> P.cache_store ~dir job p);
                      p
                  | _ -> die "request %s: cache probe disagrees with its class %s" s.id s.kind
                in
                let line =
                  span "stats_io.encode" (fun () ->
                      Json.to_string
                        (Critload.Protocol.response_to_json
                           (Critload.Protocol.Result { id = s.id; payload })))
                in
                span "stats_io.decode" (fun () ->
                    match Critload.Protocol.response_of_json (Json.of_string line) with
                    | Ok (Critload.Protocol.Result { payload; _ }) ->
                        ignore (P.timing_summary_of_json payload);
                        payload
                    | _ -> die "response %s does not round-trip" s.id))
        | k -> die "unknown job kind %s" k
      in
      (match reference s with
      | Some r when canonical r = canonical (Json.to_string payload) -> ()
      | Some _ ->
          incr mismatches;
          Printf.eprintf "critbench: %s (%s, %s): traced result differs from the CLI's\n%!"
            s.id s.job.P.sj_app s.job.P.sj_label
      | None -> incr unchecked);
      flush_spans oc)
    specs;
  Printf.fprintf oc "{\"type\":\"check\",\"jobs\":%d,\"mismatches\":%d,\"unchecked\":%d}\n"
    (List.length specs) !mismatches !unchecked;
  close_out oc;
  if !mismatches > 0 then exit 1

let () =
  let rec opts acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        opts ((flag, v) :: acc) rest
    | [] -> acc
    | x :: _ -> die "unexpected argument %s" x
  in
  match Array.to_list Sys.argv with
  | _ :: "requests" :: spec :: out :: [] -> requests spec out
  | _ :: "trace" :: spec :: out :: rest ->
      let o = opts [] rest in
      let reference =
        match (List.assoc_opt "--doc" o, List.assoc_opt "--responses" o) with
        | Some d, None -> doc_reference d
        | None, Some r -> responses_reference r
        | None, None -> fun _ -> None
        | Some _, Some _ -> die "give --doc or --responses, not both"
      in
      trace ~spec_path:spec ~out_path:out ~reference
        ~cache_dir:(List.assoc_opt "--cache-dir" o)
  | _ ->
      prerr_endline
        "usage: critbench requests SPEC OUT\n\
        \       critbench trace SPEC OUT [--doc DOC | --responses FILE] [--cache-dir DIR]";
      exit 2
