(** The observability substrate: monotonic clock, structured logger,
    span tracing (Chrome trace-event export), striped metrics, and the
    guarantee that tracing never changes scan results. *)

module Clock = Wap_obs.Clock
module Log = Wap_obs.Log
module Trace = Wap_obs.Trace
module Metrics = Wap_obs.Metrics
module Json = Wap_report.Json

(* ------------------------------------------------------------------ *)
(* Clock.                                                              *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if t < !prev then
      Alcotest.failf "clock went backwards: %d after %d" t !prev;
    prev := t
  done;
  let t0 = Clock.now_ns () in
  Alcotest.(check bool) "elapsed is non-negative" true
    (Clock.elapsed_ns t0 >= 0)

let test_clock_units () =
  Alcotest.(check (float 1e-9)) "1.5us" 1.5 (Clock.ns_to_us 1_500);
  Alcotest.(check (float 1e-9)) "2.5s" 2.5 (Clock.ns_to_s 2_500_000_000)

(* ------------------------------------------------------------------ *)
(* Logger.                                                             *)

let with_captured_log f =
  let lines = ref [] in
  let saved_level = Log.level () and saved_format = Log.format () in
  Log.set_writer (fun line -> lines := line :: !lines);
  Fun.protect
    ~finally:(fun () ->
      Log.reset_writer ();
      Log.set_level saved_level;
      Log.set_format saved_format)
    (fun () ->
      f ();
      List.rev !lines)

let test_log_levels () =
  List.iter
    (fun l ->
      Alcotest.(check (option string))
        (Log.level_name l ^ " round-trips")
        (Some (Log.level_name l))
        (Option.map Log.level_name (Log.level_of_string (Log.level_name l))))
    [ Log.Debug; Log.Info; Log.Warn; Log.Error; Log.Quiet ];
  Alcotest.(check (option string)) "unknown level rejected" None
    (Option.map Log.level_name (Log.level_of_string "loud"));
  let lines =
    with_captured_log (fun () ->
        Log.set_level Log.Warn;
        Log.set_format Log.Text;
        Alcotest.(check bool) "debug disabled at warn" false (Log.enabled Log.Debug);
        Alcotest.(check bool) "error enabled at warn" true (Log.enabled Log.Error);
        Log.debug "invisible";
        Log.info "also invisible";
        Log.warn "visible warning";
        Log.error "visible error")
  in
  Alcotest.(check int) "only warn+error emitted" 2 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "line ends with newline" true
        (String.length line > 0 && line.[String.length line - 1] = '\n'))
    lines

let test_log_text_fields () =
  let lines =
    with_captured_log (fun () ->
        Log.set_level Log.Info;
        Log.set_format Log.Text;
        Log.info "scan finished" ~fields:[ ("files", "12"); ("jobs", "4") ])
  in
  match lines with
  | [ line ] ->
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "message present" true (has "scan finished");
      Alcotest.(check bool) "fields rendered" true (has "files=12");
      (* the level tag is padded to a fixed width: [info ] *)
      Alcotest.(check bool) "level tag present" true (has "[info")
  | ls -> Alcotest.failf "expected one line, got %d" (List.length ls)

let test_log_jsonl () =
  let lines =
    with_captured_log (fun () ->
        Log.set_level Log.Debug;
        Log.set_format Log.Json;
        Log.warn "odd \"input\"\n here" ~fields:[ ("path", "a\\b.php") ])
  in
  match lines with
  | [ line ] -> (
      match Json.of_string (String.trim line) with
      | Error e -> Alcotest.failf "JSONL line does not parse: %s" e
      | Ok doc ->
          Alcotest.(check (option string)) "level field" (Some "warn")
            (match Json.member "level" doc with
            | Some (Json.Str s) -> Some s
            | _ -> None);
          Alcotest.(check (option string)) "msg survives escaping"
            (Some "odd \"input\"\n here")
            (match Json.member "msg" doc with
            | Some (Json.Str s) -> Some s
            | _ -> None);
          Alcotest.(check (option string)) "field survives escaping"
            (Some "a\\b.php")
            (match Json.member "path" doc with
            | Some (Json.Str s) -> Some s
            | _ -> None);
          Alcotest.(check bool) "timestamp present" true
            (Json.member "ts" doc <> None))
  | ls -> Alcotest.failf "expected one line, got %d" (List.length ls)

(* ------------------------------------------------------------------ *)
(* Tracing.                                                            *)

let with_tracer f =
  let t = Trace.create () in
  Trace.set_global (Some t);
  Fun.protect ~finally:(fun () -> Trace.set_global None) (fun () -> f t)

let find_event evs name =
  match List.find_opt (fun (e : Trace.event) -> e.Trace.ev_name = name) evs with
  | Some e -> e
  | None -> Alcotest.failf "event %s not recorded" name

let test_span_nesting () =
  let evs =
    with_tracer (fun t ->
        Trace.with_span ~cat:"test" "outer" (fun () ->
            Trace.with_span ~cat:"test" "inner"
              ~args:[ ("k", "v") ]
              (fun () -> ignore (Sys.opaque_identity 1));
            Trace.instant ~cat:"test" "tick");
        Trace.events t)
  in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let outer = find_event evs "outer" and inner = find_event evs "inner" in
  let tick = find_event evs "tick" in
  Alcotest.(check int) "outer at depth 0" 0 outer.Trace.ev_depth;
  Alcotest.(check int) "inner at depth 1" 1 inner.Trace.ev_depth;
  Alcotest.(check bool) "tick is an instant" true tick.Trace.ev_instant;
  Alcotest.(check bool) "span is not an instant" false outer.Trace.ev_instant;
  let ends (e : Trace.event) = e.Trace.ev_ts_ns + e.Trace.ev_dur_ns in
  Alcotest.(check bool) "child starts inside parent" true
    (inner.Trace.ev_ts_ns >= outer.Trace.ev_ts_ns);
  Alcotest.(check bool) "child ends inside parent" true
    (ends inner <= ends outer);
  Alcotest.(check (list (pair string string))) "args recorded"
    [ ("k", "v") ] inner.Trace.ev_args

let test_span_records_on_raise () =
  let evs =
    with_tracer (fun t ->
        (try
           Trace.with_span ~cat:"test" "failing" (fun () -> failwith "boom")
         with Failure _ -> ());
        Trace.events t)
  in
  Alcotest.(check int) "span recorded despite the raise" 1 (List.length evs);
  Alcotest.(check string) "it is the failing span" "failing"
    (List.hd evs).Trace.ev_name

let test_tracing_disabled_is_noop () =
  Trace.set_global None;
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  (* must not raise, must still run the thunk *)
  let r = Trace.with_span ~cat:"test" "ambient" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result returned" 42 r;
  Trace.instant ~cat:"test" "ambient-instant"

let named name t =
  List.filter (fun (e : Trace.event) -> e.Trace.ev_name = name) (Trace.events t)

let trainings t = List.length (named "predictor.train" t)

(* the number of candidates a one-file scan of [src] finds *)
let scan_candidates tool src =
  let o =
    Wap_core.Tool.Scan.run tool
      (Wap_core.Tool.Scan.request ~jobs:1 [ ("t.php", "<?php\n" ^ src) ])
  in
  List.length o.Wap_core.Tool.Scan.result.Wap_core.Tool.candidates

let stock_algos =
  List.map
    (fun (a : Wap_mining.Classifier.algorithm) -> a.Wap_mining.Classifier.algo_name)
    Wap_mining.Predictor.extended_config.Wap_mining.Predictor.algorithms

let train_counts () =
  let hists = (Metrics.snapshot Metrics.global).Metrics.histograms in
  List.map
    (fun algo ->
      match List.assoc_opt ("mining.train_seconds." ^ algo) hists with
      | Some h -> h.Metrics.h_count
      | None -> 0)
    stock_algos

(* The stock tool ships its ensemble trained: scans with candidates
   classify them without a [predictor.train] span, and the
   [mining.train_seconds.*] counts do not move (the registry is
   process-global, so they are compared before and after). *)
let test_stock_predictor_never_trains () =
  with_tracer (fun t ->
      let before = train_counts () in
      let tool = Wap_core.Tool.create Wap_core.Version.Wape in
      Alcotest.(check int) "XSS: one candidate" 1
        (scan_candidates tool "echo $_GET['q'];\n");
      Alcotest.(check int) "SQLI: one candidate" 1
        (scan_candidates tool "mysql_query($_GET['q']);\n");
      Alcotest.(check int) "classified" 2 (List.length (named "predictor.classify" t));
      Alcotest.(check int) "no training" 0 (trainings t);
      Alcotest.(check (list int)) "no train_seconds observation" before (train_counts ()))

(* A predictor built from a data set trains at its first classification,
   inside a scan's [phase.predict]: a scan without candidates never
   trains it, and two scans with candidates train it once, one
   [classifier.train] child span per ensemble member. *)
let test_predictor_trains_on_first_use () =
  with_tracer (fun t ->
      let before = train_counts () in
      let tool =
        Wap_core.Tool.create
          ~dataset:(Wap_core.Training.dataset_for Wap_core.Version.Wape)
          Wap_core.Version.Wape
      in
      let scan = scan_candidates tool in
      Alcotest.(check int) "clean file: no candidate" 0 (scan "echo 'hello';\n");
      Alcotest.(check int) "no candidate: no training" 0 (trainings t);
      Alcotest.(check int) "XSS: one candidate" 1 (scan "echo $_GET['q'];\n");
      Alcotest.(check int) "SQLI: one candidate" 1
        (scan "mysql_query($_GET['q']);\n");
      Alcotest.(check int) "two scans with candidates: one training" 1
        (trainings t);
      let parent = List.hd (named "predictor.train" t) in
      let within (e : Trace.event) =
        e.Trace.ev_tid = parent.Trace.ev_tid
        && e.Trace.ev_depth = parent.Trace.ev_depth + 1
        && e.Trace.ev_ts_ns >= parent.Trace.ev_ts_ns
        && e.Trace.ev_ts_ns + e.Trace.ev_dur_ns
           <= parent.Trace.ev_ts_ns + parent.Trace.ev_dur_ns
      in
      let children = List.filter within (Trace.events t) in
      Alcotest.(check (list string)) "one child span per ensemble member" stock_algos
        (List.map
           (fun (e : Trace.event) ->
             if e.Trace.ev_name <> "classifier.train" then
               Alcotest.failf "unexpected child span %s" e.Trace.ev_name;
             Option.value ~default:"" (List.assoc_opt "algo" e.Trace.ev_args))
           children);
      (* and one observation each in the histograms --stats lists *)
      Alcotest.(check (list int)) "one train_seconds observation per member"
        (List.map succ before) (train_counts ()))

let test_chrome_json_well_formed () =
  let json =
    with_tracer (fun t ->
        Trace.with_span ~cat:"test" "outer" (fun () ->
            Trace.with_span ~cat:"test" "inner \"quoted\"" (fun () -> ()));
        Trace.instant ~cat:"test" "mark";
        Trace.to_chrome_json ~pid:1 t)
  in
  match Json.of_string json with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok doc -> (
      match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
      | None -> Alcotest.fail "no traceEvents array"
      | Some evs ->
          (* the three recorded events plus thread_name metadata *)
          Alcotest.(check bool) "at least four entries" true
            (List.length evs >= 4);
          let phases =
            List.filter_map
              (fun e ->
                match Json.member "ph" e with
                | Some (Json.Str s) -> Some s
                | _ -> None)
            evs
          in
          Alcotest.(check int) "every event has a phase" (List.length evs)
            (List.length phases);
          Alcotest.(check bool) "has complete events" true
            (List.mem "X" phases);
          Alcotest.(check bool) "has an instant event" true
            (List.mem "i" phases);
          Alcotest.(check bool) "has thread metadata" true
            (List.mem "M" phases);
          List.iter
            (fun e ->
              List.iter
                (fun k ->
                  if Json.member k e = None then
                    Alcotest.failf "event missing %S: %s" k
                      (Json.to_string ~indent:false e))
                [ "name"; "ph"; "pid"; "tid" ])
            evs)

let test_trace_write_file () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wap-trace-test-%d.json" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      with_tracer (fun t ->
          Trace.with_span ~cat:"test" "s" (fun () -> ());
          Trace.write t ~file:path);
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "written file parses" true
        (match Json.of_string s with Ok _ -> true | Error _ -> false))

let test_trace_multi_domain () =
  let evs =
    with_tracer (fun t ->
        let ds =
          List.init 4 (fun i ->
              Domain.spawn (fun () ->
                  Trace.with_span ~cat:"test"
                    (Printf.sprintf "worker-%d" i)
                    (fun () -> ())))
        in
        List.iter Domain.join ds;
        Trace.events t)
  in
  Alcotest.(check int) "one span per domain" 4 (List.length evs);
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Trace.ev_tid) evs)
  in
  Alcotest.(check int) "four distinct tids" 4 (List.length tids)

let names_of evs = List.map (fun (e : Trace.event) -> e.Trace.ev_name) evs

let test_ring_overflow_eviction () =
  let t = Trace.create ~ring_capacity:4 () in
  Trace.set_global (Some t);
  Fun.protect ~finally:(fun () -> Trace.set_global None) @@ fun () ->
  for i = 1 to 10 do
    Trace.instant ~cat:"test" (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check (option int)) "capacity reported" (Some 4)
    (Trace.ring_capacity t);
  Alcotest.(check int) "every record counted, dropped included" 10
    (Trace.event_count t);
  Alcotest.(check int) "overflow counted as drops" 6 (Trace.dropped t);
  Alcotest.(check (list string)) "oldest evicted first, order kept"
    [ "e7"; "e8"; "e9"; "e10" ] (names_of (Trace.events t));
  (* a drain returns the live window and erases nothing *)
  Alcotest.(check (list string)) "drain returns the window"
    [ "e7"; "e8"; "e9"; "e10" ] (names_of (Trace.drain t));
  Alcotest.(check (list string)) "events still hold the drained window"
    [ "e7"; "e8"; "e9"; "e10" ] (names_of (Trace.events t));
  Trace.instant ~cat:"test" "after";
  Alcotest.(check (list string)) "second drain returns only the new event"
    [ "after" ] (names_of (Trace.drain t));
  Alcotest.(check (list string)) "the full ring still evicts after a drain"
    [ "e8"; "e9"; "e10"; "after" ] (names_of (Trace.events t));
  Alcotest.(check int) "evicting a served event is no drop" 6
    (Trace.dropped t)

(* [dropped] counts what no drain served: 0 for a poller that keeps up
   with the ring, however often the ring wraps; what a poller that
   falls behind misses. *)
let test_ring_poller_drops () =
  let t = Trace.create ~ring_capacity:4 () in
  Trace.set_global (Some t);
  Fun.protect ~finally:(fun () -> Trace.set_global None) @@ fun () ->
  let record names =
    List.iter (fun n -> Trace.instant ~cat:"test" n) names
  in
  for round = 1 to 5 do
    let names = List.init 3 (fun i -> Printf.sprintf "r%d.%d" round i) in
    record names;
    Alcotest.(check (list string)) "each poll returns its round" names
      (names_of (Trace.drain t))
  done;
  Alcotest.(check int) "the ring wrapped" 15 (Trace.event_count t);
  Alcotest.(check int) "a poller that keeps up drops nothing" 0
    (Trace.dropped t);
  record (List.init 6 (fun i -> Printf.sprintf "late%d" i));
  Alcotest.(check int) "a lagging poller misses two" 2 (Trace.dropped t);
  Alcotest.(check (list string)) "the poll returns what the ring kept"
    [ "late2"; "late3"; "late4"; "late5" ] (names_of (Trace.drain t));
  Alcotest.(check int) "the misses stay counted" 2 (Trace.dropped t)

(* [drain] is a read: each call returns what was recorded since the
   previous one, and [events] (what --trace-out writes) keeps it all. *)
let test_drain_keeps_events () =
  with_tracer @@ fun t ->
  Trace.instant ~cat:"test" "first";
  Alcotest.(check (list string)) "first drain" [ "first" ]
    (names_of (Trace.drain t));
  Trace.with_span ~cat:"test" "second" ignore;
  Alcotest.(check (list string)) "second drain holds only its event"
    [ "second" ] (names_of (Trace.drain t));
  Alcotest.(check (list string)) "nothing left to drain" []
    (names_of (Trace.drain t));
  Alcotest.(check (list string)) "events keep both" [ "first"; "second" ]
    (names_of (Trace.events t))

(* Drains racing a recording domain serve every event exactly once and
   in order: a drain reads each buffer's cursor once and takes events up
   to it, so an event recorded mid-drain goes to this poll or the next,
   never to both or neither. *)
let test_drain_races_recording () =
  with_tracer @@ fun t ->
  let n = 100_000 in
  let finished = Atomic.make false in
  let recorder =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Trace.instant ~cat:"test" (string_of_int i)
        done;
        Atomic.set finished true)
  in
  let rec poll acc =
    if Atomic.get finished then acc
    else poll (List.rev_append (names_of (Trace.drain t)) acc)
  in
  let polled = poll [] in
  Domain.join recorder;
  let served = List.rev_append polled (names_of (Trace.drain t)) in
  Alcotest.(check bool) "every event served once, in order" true
    (served = List.init n string_of_int)

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

let test_counter_basic () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r "test.count" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "42 after 1+41" 42 (Metrics.value c);
  let c' = Metrics.counter ~registry:r "test.count" in
  Metrics.incr c';
  Alcotest.(check int) "find-or-create shares state" 43 (Metrics.value c)

let test_counter_merge_4_domains () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r "test.parallel" in
  let per_domain = 25_000 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no increment lost at jobs=4" (4 * per_domain)
    (Metrics.value c)

let test_histogram_buckets () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r ~buckets:[| 0.01; 0.1; 1.0 |] "test.h" in
  List.iter (Metrics.observe h) [ 0.005; 0.05; 0.5; 5.0 ];
  let s = Metrics.hist_snapshot h in
  Alcotest.(check (array (float 1e-9))) "bounds kept" [| 0.01; 0.1; 1.0 |]
    s.Metrics.h_buckets;
  Alcotest.(check (array int)) "one observation per bucket + overflow"
    [| 1; 1; 1; 1 |] s.Metrics.h_counts;
  Alcotest.(check int) "total count" 4 s.Metrics.h_count;
  Alcotest.(check (float 1e-6)) "sum" 5.555 s.Metrics.h_sum

let test_histogram_merge_4_domains () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r ~buckets:[| 1.0 |] "test.hp" in
  let per_domain = 10_000 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.observe h 0.5
            done))
  in
  List.iter Domain.join ds;
  let s = Metrics.hist_snapshot h in
  Alcotest.(check int) "no observation lost at jobs=4" (4 * per_domain)
    s.Metrics.h_count;
  Alcotest.(check (float 1.0)) "sum merged" (0.5 *. float_of_int (4 * per_domain))
    s.Metrics.h_sum

let test_registry_snapshot_and_reset () =
  let r = Metrics.create_registry () in
  Metrics.incr (Metrics.counter ~registry:r "b.second");
  Metrics.incr (Metrics.counter ~registry:r "a.first");
  Metrics.observe (Metrics.histogram ~registry:r "z.h") 0.25;
  let s = Metrics.snapshot r in
  Alcotest.(check (list (pair string int))) "counters sorted by name"
    [ ("a.first", 1); ("b.second", 1) ]
    s.Metrics.counters;
  Alcotest.(check (list string)) "histograms listed" [ "z.h" ]
    (List.map fst s.Metrics.histograms);
  Metrics.reset r;
  let s = Metrics.snapshot r in
  Alcotest.(check (list (pair string int))) "reset zeroes, keeps registration"
    [ ("a.first", 0); ("b.second", 0) ]
    s.Metrics.counters

let test_gauge_basic () =
  let r = Metrics.create_registry () in
  let g = Metrics.gauge ~registry:r "test.g" in
  Alcotest.(check (float 0.)) "starts at zero" 0.0 (Metrics.gauge_value g);
  Metrics.set g 3.5;
  Metrics.set g 2.0;
  Alcotest.(check (float 0.)) "last write wins" 2.0 (Metrics.gauge_value g);
  let g' = Metrics.gauge ~registry:r "test.g" in
  Metrics.set g' 7.0;
  Alcotest.(check (float 0.)) "find-or-create shares state" 7.0
    (Metrics.gauge_value g)

let test_quantile () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r ~buckets:[| 0.01; 0.1; 1.0 |] "test.q" in
  Alcotest.(check bool) "empty histogram has no quantile" true
    (Float.is_nan (Metrics.quantile h 0.5));
  for _ = 1 to 100 do
    Metrics.observe h 0.05
  done;
  (* all mass in (0.01, 0.1]: the quantile interpolates inside that bucket *)
  Alcotest.(check (float 1e-9)) "p50 interpolates inside the bucket" 0.055
    (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p95 interpolates inside the bucket" 0.0955
    (Metrics.quantile h 0.95);
  Metrics.observe h 5.0;
  Alcotest.(check (float 1e-9)) "overflow mass clamps to the top bound" 1.0
    (Metrics.quantile h 1.0)

let test_quantile_clamped () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "test.qc" in
  Alcotest.(check bool) "empty histogram has no clamped quantile" true
    (Float.is_nan (Metrics.clamped_quantile (Metrics.hist_snapshot h) 0.5));
  (* one observation inside the default (5 ms, 25 ms] bucket *)
  Metrics.observe h 0.0053;
  let s = Metrics.hist_snapshot h in
  Alcotest.(check (float 1e-12)) "min recorded" 0.0053 s.Metrics.h_min;
  Alcotest.(check (float 1e-12)) "max recorded" 0.0053 s.Metrics.h_max;
  Alcotest.(check (float 1e-9)) "interpolated p50 leaves the data" 0.015
    (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-12)) "clamped p50 is the observation" 0.0053
    (Metrics.clamped_quantile s 0.5);
  Alcotest.(check (float 1e-12)) "clamped p95 is the observation" 0.0053
    (Metrics.clamped_quantile s 0.95);
  Metrics.observe h 0.02;
  let s = Metrics.hist_snapshot h in
  Alcotest.(check (float 1e-12)) "min kept" 0.0053 s.Metrics.h_min;
  Alcotest.(check (float 1e-12)) "max widened" 0.02 s.Metrics.h_max;
  Metrics.reset r;
  let s = Metrics.hist_snapshot h in
  Alcotest.(check bool) "reset empties the range" true
    (s.Metrics.h_min = infinity && s.Metrics.h_max = neg_infinity)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition.                                              *)

module Expo = Wap_obs.Expo

let test_prometheus_golden () =
  let r = Metrics.create_registry () in
  Metrics.incr ~by:3 (Metrics.counter ~registry:r "scan.files");
  Metrics.set (Metrics.gauge ~registry:r "serve.open_documents") 2.;
  Metrics.incr ~by:5
    (Metrics.counter ~registry:r "scan.candidates.sqli first-order");
  let h =
    Metrics.histogram ~registry:r ~buckets:[| 0.1; 1.0 |]
      "serve.request_seconds.textDocument/didOpen"
  in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 2.0 ];
  let expected =
    "# HELP wap_scan_candidates_sqli_first_order_total wap metric \
     wap_scan_candidates_sqli_first_order_total\n\
     # TYPE wap_scan_candidates_sqli_first_order_total counter\n\
     wap_scan_candidates_sqli_first_order_total 5\n\
     # HELP wap_scan_files_total wap metric wap_scan_files_total\n\
     # TYPE wap_scan_files_total counter\n\
     wap_scan_files_total 3\n\
     # HELP wap_serve_open_documents wap metric wap_serve_open_documents\n\
     # TYPE wap_serve_open_documents gauge\n\
     wap_serve_open_documents 2\n\
     # HELP wap_serve_request_seconds wap metric wap_serve_request_seconds\n\
     # TYPE wap_serve_request_seconds histogram\n\
     wap_serve_request_seconds_bucket{method=\"textDocument/didOpen\",le=\"0.1\"} 1\n\
     wap_serve_request_seconds_bucket{method=\"textDocument/didOpen\",le=\"1\"} 2\n\
     wap_serve_request_seconds_bucket{method=\"textDocument/didOpen\",le=\"+Inf\"} 3\n\
     wap_serve_request_seconds_sum{method=\"textDocument/didOpen\"} 2.55\n\
     wap_serve_request_seconds_count{method=\"textDocument/didOpen\"} 3\n"
  in
  Alcotest.(check string) "golden document" expected (Expo.prometheus r)

let test_prometheus_roundtrip () =
  let r = Metrics.create_registry () in
  (* a method name exercising all three label escapes: quote, backslash,
     newline *)
  let weird = "he said \"hi\\there\"\nand left" in
  let h =
    Metrics.histogram ~registry:r ~buckets:[| 0.1; 1.0 |]
      ("serve.request_seconds." ^ weird)
  in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 0.7; 2.0 ];
  Metrics.incr ~by:7 (Metrics.counter ~registry:r ("serve.requests." ^ weird));
  let doc = Expo.prometheus r in
  match Expo.parse_text doc with
  | Error e -> Alcotest.failf "strict parse rejected our own exposition: %s" e
  | Ok p ->
      let samples name =
        List.filter (fun s -> s.Expo.s_name = name) p.Expo.p_samples
      in
      (* label escaping round-trips to the original value *)
      let methods =
        List.filter_map
          (fun s -> List.assoc_opt "method" s.Expo.s_labels)
          p.Expo.p_samples
      in
      Alcotest.(check bool) "escaped label value round-trips" true
        (List.mem weird methods);
      (* buckets are cumulative and closed by +Inf = _count *)
      let buckets = samples "wap_serve_request_seconds_bucket" in
      let vals = List.map (fun s -> s.Expo.s_value) buckets in
      Alcotest.(check (list (float 0.))) "buckets are cumulative"
        (List.sort compare vals) vals;
      let inf =
        List.find_opt
          (fun s -> List.assoc_opt "le" s.Expo.s_labels = Some "+Inf")
          buckets
      in
      let count = samples "wap_serve_request_seconds_count" in
      (match (inf, count) with
      | Some i, [ c ] ->
          Alcotest.(check (float 0.)) "+Inf bucket equals _count" c.Expo.s_value
            i.Expo.s_value
      | _ -> Alcotest.fail "missing +Inf bucket or _count sample");
      (match samples "wap_serve_request_seconds_sum" with
      | [ s ] ->
          Alcotest.(check (float 1e-9)) "_sum is the sum of observations" 3.25
            s.Expo.s_value
      | l -> Alcotest.failf "expected one _sum sample, got %d" (List.length l));
      (match samples "wap_serve_requests_total" with
      | [ s ] ->
          Alcotest.(check (float 0.)) "counter value survives" 7.0
            s.Expo.s_value
      | l ->
          Alcotest.failf "expected one requests_total sample, got %d"
            (List.length l));
      (* TYPE lines cover every family *)
      Alcotest.(check (option string)) "histogram TYPE line" (Some "histogram")
        (List.assoc_opt "wap_serve_request_seconds" p.Expo.p_types);
      Alcotest.(check (option string)) "counter TYPE line" (Some "counter")
        (List.assoc_opt "wap_serve_requests_total" p.Expo.p_types)

(* ------------------------------------------------------------------ *)
(* Tracing must not change scan results.                               *)

let test_tracing_does_not_change_results () =
  let seed = 2016 in
  let tool = Wap_core.Tool.create ~seed Wap_core.Version.Wape in
  let pkg =
    Wap_corpus.Appgen.of_webapp_profile ~seed
      (List.nth Wap_corpus.Profiles.vulnerable_webapps 0)
  in
  let files =
    List.map
      (fun (f : Wap_corpus.Appgen.file) ->
        (f.Wap_corpus.Appgen.f_name, f.Wap_corpus.Appgen.f_source))
      pkg.Wap_corpus.Appgen.pkg_files
  in
  let export () =
    let o =
      Wap_core.Tool.Scan.run tool (Wap_core.Tool.Scan.request ~jobs:4 files)
    in
    let r = o.Wap_core.Tool.Scan.result in
    Wap_core.Export.result_to_string
      {
        r with
        Wap_core.Tool.analysis_seconds = 0.0;
        analysis_cpu_seconds = 0.0;
        phase_seconds =
          List.map (fun (k, _) -> (k, 0.0)) r.Wap_core.Tool.phase_seconds;
      }
  in
  let plain = export () in
  let traced, n_events =
    with_tracer (fun t ->
        let e = export () in
        (e, Trace.event_count t))
  in
  Alcotest.(check bool) "the traced run actually recorded spans" true
    (n_events > 0);
  Alcotest.(check string) "export byte-identical with tracing on" plain traced

let () =
  Alcotest.run "wap_obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "unit conversions" `Quick test_clock_units;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels gate emission" `Quick test_log_levels;
          Alcotest.test_case "text format" `Quick test_log_text_fields;
          Alcotest.test_case "jsonl format" `Quick test_log_jsonl;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span survives raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_tracing_disabled_is_noop;
          Alcotest.test_case "chrome JSON well-formed" `Quick
            test_chrome_json_well_formed;
          Alcotest.test_case "write to file" `Quick test_trace_write_file;
          Alcotest.test_case "per-domain buffers" `Quick test_trace_multi_domain;
          Alcotest.test_case "ring overflow evicts oldest" `Quick
            test_ring_overflow_eviction;
          Alcotest.test_case "drain keeps every event" `Quick
            test_drain_keeps_events;
          Alcotest.test_case "ring drops count what no poll served" `Quick
            test_ring_poller_drops;
          Alcotest.test_case "drains racing a recorder serve each event once"
            `Quick test_drain_races_recording;
          Alcotest.test_case "stock predictor never trains" `Quick
            test_stock_predictor_never_trains;
          Alcotest.test_case "predictor trains at first classification"
            `Quick test_predictor_trains_on_first_use;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basic;
          Alcotest.test_case "counter merge at jobs=4" `Quick
            test_counter_merge_4_domains;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram merge at jobs=4" `Quick
            test_histogram_merge_4_domains;
          Alcotest.test_case "snapshot + reset" `Quick
            test_registry_snapshot_and_reset;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basic;
          Alcotest.test_case "histogram quantiles" `Quick test_quantile;
          Alcotest.test_case "clamped quantiles stay in the observed range"
            `Quick test_quantile_clamped;
        ] );
      ( "expo",
        [
          Alcotest.test_case "prometheus golden document" `Quick
            test_prometheus_golden;
          Alcotest.test_case "strict parser round-trip" `Quick
            test_prometheus_roundtrip;
        ] );
      ( "regression",
        [
          Alcotest.test_case "tracing changes no scan bytes" `Slow
            test_tracing_does_not_change_results;
        ] );
    ]
