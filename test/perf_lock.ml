(* Shared digest harness for the perf-lock differential suite.

   One pinned run configuration, used identically by the golden
   generator (gen_perf_lock.ml), the full differential test
   (test_perf_lock.ml), and the @perf-smoke single-app check
   (validate_perf_smoke.ml).  The run exercises the production path —
   fast-forward on, tracing and the profile reducer attached — so the
   digests lock the complete observable surface of the cycle core:

     dg_stats    MD5 of the Stats.t JSON document
     dg_profile  MD5 of the Profile.t JSON document
     dg_trace    MD5 of the full JSONL trace event stream

   The instruction cap keeps a 15-app sweep inside test-suite budgets
   while still driving every app through launch, issue, coalescing,
   L1/MSHR, interconnect, L2 and DRAM paths. *)

module R = Critload.Runner
module Json = Gsim.Stats_io.Json

let cap_cfg =
  Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:6_000 ()

type digests = { dg_stats : string; dg_profile : string; dg_trace : string }

let digest_app (app : Workloads.App.t) =
  let buf = Buffer.create (1 lsl 16) in
  let trace =
    Gsim.Trace.stream (fun ev ->
        Buffer.add_string buf (Json.to_string (Gsim.Trace.event_to_json ev));
        Buffer.add_char buf '\n')
  in
  match
    R.run ~cfg:cap_cfg ~scale:Workloads.App.Small ~warmup:false ~profile:true
      ~trace app
  with
  | Error e ->
      failwith
        (Printf.sprintf "perf_lock: %s failed: %s" app.Workloads.App.name
           (Gsim.Sim_error.to_string e))
  | Ok rep ->
      let stats_doc =
        Json.to_string (Gsim.Stats_io.stats_to_json (R.Report.stats_exn rep))
      in
      let profile_doc =
        match rep.R.Report.profile with
        | Some p -> Json.to_string (Gsim.Profile.to_json p)
        | None -> failwith "perf_lock: profile missing from timing report"
      in
      {
        dg_stats = Digest.to_hex (Digest.string stats_doc);
        dg_profile = Digest.to_hex (Digest.string profile_doc);
        dg_trace = Digest.to_hex (Digest.string (Buffer.contents buf));
      }

(* Warmup lock: the same pinned configuration with the warmup pre-pass
   on, so the pre-pass's launch choice and the fast-forward into it are
   locked too.  [wd_skip] is the launch index cycle simulation starts
   at ({!Critload.Runner.warmup_launches}); [wd_stats] is the MD5 of the
   resulting Stats.t JSON document. *)
type warmup_digest = { wd_skip : int; wd_stats : string }

let warmup_digest_app (app : Workloads.App.t) =
  let scale = Workloads.App.Small in
  let skip = R.warmup_launches ~cfg:cap_cfg app scale in
  match R.run ~cfg:cap_cfg ~scale ~warmup:true app with
  | Error e ->
      failwith
        (Printf.sprintf "perf_lock: %s (warmup) failed: %s"
           app.Workloads.App.name
           (Gsim.Sim_error.to_string e))
  | Ok rep ->
      let stats_doc =
        Json.to_string (Gsim.Stats_io.stats_to_json (R.Report.stats_exn rep))
      in
      { wd_skip = skip; wd_stats = Digest.to_hex (Digest.string stats_doc) }

(* Parse a golden file of space-separated fields, one app per line;
   '#' comments and blank lines ignored.  [row] maps a line's fields
   to its entry, or [None] when the line is malformed. *)
let read_table path row =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else
          match row (String.split_on_char ' ' line) with
          | Some entry -> go (entry :: acc)
          | None ->
              close_in ic;
              failwith
                (Printf.sprintf "perf_lock: malformed golden line: %S" line))
  in
  go []

(* "<app> <stats> <profile> <trace>" lines. *)
let read_golden path =
  read_table path (function
    | [ app; s; p; t ] ->
        Some (app, { dg_stats = s; dg_profile = p; dg_trace = t })
    | _ -> None)

(* "<app> <skip> <stats>" lines. *)
let read_warmup_golden path =
  read_table path (function
    | [ app; skip; s ] -> (
        match int_of_string_opt skip with
        | Some k -> Some (app, { wd_skip = k; wd_stats = s })
        | None -> None)
    | _ -> None)
