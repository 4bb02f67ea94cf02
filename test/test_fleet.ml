(** The fleet: wire protocol round-trips and truncation, project
    discovery, merged NDJSON byte-determinism across worker counts,
    worker-death retry (a killed worker and a torn result), parse
    entries shared across projects, the hardened shared disk cache
    they live in, the admin plane's short-write loop, and the fuzz
    driver's sorted seed replay. *)

module Proto = Wap_fleet.Proto
module Worker = Wap_fleet.Worker
module Coordinator = Wap_fleet.Coordinator
module Cache = Wap_engine.Cache
module Json = Wap_report.Json

(* A worker that dies mid-write: with [torn_env] naming a project,
   this binary's worker mode answers every job with a canned result,
   but of that project's first attempt it writes half the marshalled
   value and exits. *)
let torn_env = "WAP_FLEET_TEST_TORN"

let () =
  match Sys.getenv_opt torn_env with
  | Some project
    when project <> ""
         && Array.length Sys.argv >= 2
         && Sys.argv.(1) = Worker.dispatch_argv ->
      ignore (Proto.recv_config stdin);
      let rec loop () =
        match Proto.recv_job stdin with
        | exception End_of_file -> exit 0
        | job ->
            let r = { (Worker.error_result job "") with Proto.res_ok = true } in
            if
              Filename.basename job.Proto.job_dir = project
              && job.Proto.job_attempt = 1
            then begin
              let whole = Marshal.to_string r [] in
              print_string (String.sub whole 0 (String.length whole / 2));
              exit 0
            end;
            Proto.send_result stdout r;
            loop ()
      in
      loop ()
  | _ -> ()

(* The coordinator re-executes this very binary as its workers: enter
   worker mode before Alcotest sees argv. *)
let () = Wap_fleet.Worker.maybe_main ()

(* ------------------------------------------------------------------ *)
(* Scratch directories.                                                *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* never follows a symlink, so a scratch tree that links into itself
   or elsewhere is removed, not traversed *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | _ -> Sys.remove path

let scratch_counter = ref 0

let scratch_dir name =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wap_fleet_test_%d_%s_%d" (Unix.getpid ()) name
         !scratch_counter)
  in
  rm_rf d;
  mkdir_p d;
  d

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One shared on-disk corpus: 4 generated projects carrying the
   identical framework layer. *)
let corpus_root =
  lazy
    (let root = scratch_dir "corpus" in
     List.iter
       (fun (name, (pkg : Wap_corpus.Appgen.package)) ->
         List.iter
           (fun (f : Wap_corpus.Appgen.file) ->
             write_file
               (Filename.concat (Filename.concat root name)
                  f.Wap_corpus.Appgen.f_name)
               f.Wap_corpus.Appgen.f_source)
           pkg.Wap_corpus.Appgen.pkg_files)
       (Wap_corpus.Corpus.generated_projects ~seed:2016 ~count:4 ());
     root)

let fleet_config ?cache_dir workers =
  {
    Coordinator.fc_workers = workers;
    fc_worker_jobs = 1;
    fc_cache_dir = cache_dir;
    fc_summary_store = false;
    fc_progress = false;
  }

let corpus_dirs () = Coordinator.discover [ Lazy.force corpus_root ]

let run_fleet ?cache_dir workers =
  Coordinator.run (fleet_config ?cache_dir workers) ~dirs:(corpus_dirs ())

(* ------------------------------------------------------------------ *)
(* Protocol.                                                           *)

(* The reading end of a pipe that holds what [write] wrote (a few
   messages: far below the pipe's buffer). *)
let via_pipe write =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  write oc;
  close_out oc;
  Unix.in_channel_of_descr r

let test_proto_roundtrip () =
  let cfg =
    { Proto.cfg_jobs = 3; cfg_cache_dir = Some "/tmp/c" }
  in
  let job = { Proto.job_dir = "corpus/proj \"x\""; job_attempt = 2 } in
  let res =
    {
      (Worker.error_result job "worker died twice") with
      Proto.res_payload = Json.Obj [ ("k", Json.List [ Json.Int 1 ]) ];
      res_ok = true;
      res_seconds = 0.25;
      res_cache_hits = 7;
    }
  in
  let ic =
    via_pipe (fun oc ->
        Proto.send_config oc cfg;
        Proto.send_job oc job;
        Proto.send_result oc res)
  in
  Alcotest.(check bool) "config round-trips" true (Proto.recv_config ic = cfg);
  Alcotest.(check bool) "job round-trips" true (Proto.recv_job ic = job);
  Alcotest.(check bool) "result round-trips" true (Proto.recv_result ic = res);
  (match Proto.recv_job ic with
  | exception End_of_file -> ()
  | _ -> Alcotest.fail "end of input must raise End_of_file");
  close_in ic

let test_proto_truncated_value () =
  let res = Worker.error_result { Proto.job_dir = "d"; job_attempt = 1 } "x" in
  let ic = via_pipe (fun oc -> Proto.send_result oc res) in
  let whole = In_channel.input_all ic in
  close_in ic;
  for n = 0 to String.length whole - 1 do
    let ic = via_pipe (fun oc -> output_string oc (String.sub whole 0 n)) in
    (match Proto.recv_result ic with
    | exception (End_of_file | Failure _) -> ()
    | _ -> Alcotest.failf "a %d-byte prefix of a result must not read" n);
    close_in ic
  done

(* ------------------------------------------------------------------ *)
(* Discovery and the walk order.                                       *)

let test_discover () =
  let root = scratch_dir "discover" in
  List.iter
    (fun p -> write_file (Filename.concat root p) "<?php\n")
    [ "b_proj/index.php"; "a_proj/index.php"; "c_proj/sub/x.php" ];
  write_file (Filename.concat root "README.md") "not a project\n";
  let dirs = Coordinator.discover [ root ] in
  Alcotest.(check (list string))
    "subdirectories, sorted"
    [ Filename.concat root "a_proj";
      Filename.concat root "b_proj";
      Filename.concat root "c_proj" ]
    dirs;
  let leaf = Filename.concat root "a_proj" in
  Alcotest.(check (list string)) "a leaf root is itself a project" [ leaf ]
    (Coordinator.discover [ leaf ]);
  match Coordinator.discover [ Filename.concat root "README.md" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a non-directory root must be rejected"

let test_php_files_sorted_relative () =
  let dir = scratch_dir "walk" in
  List.iter
    (fun p -> write_file (Filename.concat dir p) "<?php\n")
    [ "zz.php"; "lib/b.php"; "lib/a.php"; "_shared/core.php"; "notes.txt" ]
  ;
  Alcotest.(check (list string))
    "relative, sorted at every level, underscore prefix first"
    [ "_shared/core.php"; "lib/a.php"; "lib/b.php"; "zz.php" ]
    (Wap_php.Io.php_files dir)

(* A symlink back into an ancestor ends the descent; a symlinked
   directory that is no cycle is scanned; a dangling link and a FIFO
   are no files to read. *)
let test_php_files_symlinks () =
  let dir = scratch_dir "links" and outside = scratch_dir "linked" in
  List.iter
    (fun p -> write_file p "<?php\n")
    [ Filename.concat dir "a.php"; Filename.concat dir "sub/b.php";
      Filename.concat outside "c.php" ];
  Unix.symlink "." (Filename.concat dir "loop");
  Unix.symlink ".." (Filename.concat dir "sub/up");
  Unix.symlink outside (Filename.concat dir "vendor");
  Unix.symlink "nowhere.php" (Filename.concat dir "dangling.php");
  Unix.mkfifo (Filename.concat dir "sub/fifo.php") 0o644;
  Alcotest.(check (list string))
    "each directory entered once"
    [ "a.php"; "sub/b.php"; "vendor/c.php" ]
    (Wap_php.Io.php_files dir);
  List.iter rm_rf [ dir; outside ]

(* ------------------------------------------------------------------ *)
(* Merge determinism and the shared parse entries.                     *)

let test_merge_determinism () =
  let o1 = run_fleet ~cache_dir:(scratch_dir "det1") 1 in
  let o2 = run_fleet ~cache_dir:(scratch_dir "det2") 2 in
  let o2b = run_fleet 2 (* no cache directory *) in
  Alcotest.(check (list string))
    "1 worker and 2 workers merge byte-identically"
    (Coordinator.merged_lines o1) (Coordinator.merged_lines o2);
  Alcotest.(check (list string))
    "cache temperature does not leak into the merge"
    (Coordinator.merged_lines o1) (Coordinator.merged_lines o2b);
  Alcotest.(check (pair int int))
    "without a cache directory no worker caches" (0, 0)
    ( o2b.Coordinator.report.Coordinator.rp_cache_hits,
      o2b.Coordinator.report.Coordinator.rp_cache_misses );
  Alcotest.(check int) "every project scanned" 4
    o2.Coordinator.report.Coordinator.rp_projects;
  Alcotest.(check (list string)) "none failed" []
    o2.Coordinator.report.Coordinator.rp_failed

let test_shared_parse_entries () =
  let o = run_fleet ~cache_dir:(scratch_dir "dedup") 2 in
  let rp = o.Coordinator.report in
  Alcotest.(check bool) "shared framework layer deduplicates" true
    (rp.Coordinator.rp_cache_hits > 0);
  Alcotest.(check bool) "dedup hit ratio > 0" true
    (rp.Coordinator.rp_dedup_hit_ratio > 0.)

(* A fresh cache directory ends up holding one parse entry per distinct
   (relative path, source) and one analysis entry per project, and
   nothing else, even with [fc_summary_store = true], which the
   benchmark probe still sets. *)
let test_cache_holds_parse_and_analysis_entries () =
  let cache_dir = scratch_dir "entries" in
  let dirs = corpus_dirs () in
  let o =
    Coordinator.run
      { (fleet_config ~cache_dir 2) with Coordinator.fc_summary_store = true }
      ~dirs
  in
  Alcotest.(check (list string)) "none failed" []
    o.Coordinator.report.Coordinator.rp_failed;
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun dir ->
      List.iter
        (fun rel ->
          Hashtbl.replace distinct (rel, read_file (Filename.concat dir rel)) ())
        (Wap_php.Io.php_files dir))
    dirs;
  let entries =
    List.filter
      (fun f -> Filename.check_suffix f ".wapc")
      (Array.to_list (Sys.readdir cache_dir))
  in
  Alcotest.(check int) "parse entries plus one analysis entry per project"
    (Hashtbl.length distinct + List.length dirs)
    (List.length entries)

let test_worker_death_retry () =
  let clean = run_fleet 2 in
  Unix.putenv Worker.crash_env "proj_001";
  let crashed =
    Fun.protect
      ~finally:(fun () -> Unix.putenv Worker.crash_env "")
      (fun () -> run_fleet 2)
  in
  let rp = crashed.Coordinator.report in
  Alcotest.(check int) "one first-attempt death recovered" 1
    rp.Coordinator.rp_retried;
  Alcotest.(check (list string)) "no project failed" []
    rp.Coordinator.rp_failed;
  Alcotest.(check (list string))
    "output identical despite the killed worker"
    (Coordinator.merged_lines clean)
    (Coordinator.merged_lines crashed)

let test_worker_death_after_retry () =
  Unix.putenv Worker.crash_env "proj_001:always";
  let o =
    Fun.protect
      ~finally:(fun () -> Unix.putenv Worker.crash_env "")
      (fun () -> run_fleet 2)
  in
  let rp = o.Coordinator.report in
  Alcotest.(check (list string))
    "the doomed project is reported failed" [ "proj_001" ]
    rp.Coordinator.rp_failed;
  Alcotest.(check int) "its first death still counts as a retry" 1
    rp.Coordinator.rp_retried;
  Alcotest.(check int) "the other projects still complete: 3 merged lines" 3
    (List.length (Coordinator.merged_lines o));
  let failed =
    List.find
      (fun r -> not r.Proto.res_ok)
      o.Coordinator.results
  in
  Alcotest.(check string) "failure is attributed" "proj_001"
    failed.Proto.res_project

(* A worker killed mid-write leaves the first part of a result on the
   pipe; the coordinator must read it as a death and retry. *)
let test_torn_result () =
  Unix.putenv torn_env "proj_001";
  let o =
    Fun.protect
      ~finally:(fun () -> Unix.putenv torn_env "")
      (fun () -> run_fleet 2)
  in
  let rp = o.Coordinator.report in
  Alcotest.(check int) "the torn result counts as one death" 1
    rp.Coordinator.rp_retried;
  Alcotest.(check (list string)) "its retry succeeds" []
    rp.Coordinator.rp_failed;
  Alcotest.(check int) "every project answered" 4 rp.Coordinator.rp_projects

(* ------------------------------------------------------------------ *)
(* The hardened shared disk cache.                                     *)

let entry_file dir key = Filename.concat dir (key ^ ".wapc")

let test_cache_two_handles_share_dir () =
  let dir = scratch_dir "cache_share" in
  let a = Cache.create ~dir () and b = Cache.create ~dir () in
  let key = Cache.key [ "test"; "shared-entry" ] in
  Cache.store a ~key [ 1; 2; 3 ];
  (match (Cache.find b ~key : int list option) with
  | Some v -> Alcotest.(check (list int)) "b reads a's entry" [ 1; 2; 3 ] v
  | None -> Alcotest.fail "second handle missed a persisted entry");
  Alcotest.(check int) "counted as a hit on b" 1 (Cache.hits b);
  (* concurrent store/find on one directory from two domains *)
  let keys = List.init 32 (fun i -> Cache.key [ "test"; "race"; string_of_int i ]) in
  let writer h = Domain.spawn (fun () -> List.iter (fun k -> Cache.store h ~key:k (String.length k)) keys) in
  let d1 = writer a and d2 = writer b in
  Domain.join d1;
  Domain.join d2;
  let c = Cache.create ~dir () in
  List.iter
    (fun k ->
      match (Cache.find c ~key:k : int option) with
      | Some v -> Alcotest.(check int) "racing writers agree" (String.length k) v
      | None -> Alcotest.fail "entry lost in the race")
    keys

let test_cache_truncated_entry_is_a_miss () =
  let dir = scratch_dir "cache_trunc" in
  let key = Cache.key [ "test"; "truncated" ] in
  let w = Cache.create ~dir () in
  Cache.store w ~key "precious";
  let path = entry_file dir key in
  Alcotest.(check bool) "entry persisted" true (Sys.file_exists path);
  (* a crash mid-write can only ever leave a truncated file if the
     rename discipline is broken — simulate the broken state directly *)
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole - 3));
  let r = Cache.create ~dir () in
  (match (Cache.find r ~key : string option) with
  | None -> ()
  | Some _ -> Alcotest.fail "truncated entry must read as a miss");
  Alcotest.(check int) "counted as a miss" 1 (Cache.misses r);
  Alcotest.(check bool) "poisoned file deleted" false (Sys.file_exists path);
  (* and the slot is usable again *)
  Cache.store r ~key "recomputed";
  match (Cache.find (Cache.create ~dir ()) ~key : string option) with
  | Some v -> Alcotest.(check string) "recomputed value persists" "recomputed" v
  | None -> Alcotest.fail "slot unusable after recovery"

let test_cache_corrupted_and_foreign_entries () =
  let dir = scratch_dir "cache_corrupt" in
  let key = Cache.key [ "test"; "corrupted" ] in
  let w = Cache.create ~dir () in
  Cache.store w ~key 42;
  let path = entry_file dir key in
  let whole = Bytes.of_string (read_file path) in
  Bytes.set whole (Bytes.length whole - 1)
    (Char.chr (Char.code (Bytes.get whole (Bytes.length whole - 1)) lxor 0xff));
  write_file path (Bytes.to_string whole);
  (match (Cache.find (Cache.create ~dir ()) ~key : int option) with
  | None -> ()
  | Some _ -> Alcotest.fail "bit-flipped entry must read as a miss");
  let foreign = Cache.key [ "test"; "foreign" ] in
  write_file (entry_file dir foreign) "not a cache entry at all\n";
  (match (Cache.find (Cache.create ~dir ()) ~key:foreign : int option) with
  | None -> ()
  | Some _ -> Alcotest.fail "foreign file must read as a miss");
  Alcotest.(check bool) "foreign file deleted" false
    (Sys.file_exists (entry_file dir foreign))

let test_cache_invalidate () =
  let dir = scratch_dir "cache_inval" in
  let key = Cache.key [ "test"; "inval" ] in
  let c = Cache.create ~dir () in
  Cache.store c ~key "v";
  Cache.invalidate c ~key;
  (match (Cache.find c ~key : string option) with
  | None -> ()
  | Some _ -> Alcotest.fail "invalidated entry still readable");
  Alcotest.(check bool) "disk entry removed" false
    (Sys.file_exists (entry_file dir key))

(* ------------------------------------------------------------------ *)
(* The admin plane's short-write loop.                                 *)

let test_http_write_all_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a payload far larger than any socket buffer forces short writes *)
  let payload = String.init (4 * 1024 * 1024) (fun i -> Char.chr (i land 0xff)) in
  let reader =
    Domain.spawn (fun () ->
        let buf = Buffer.create (String.length payload) in
        let chunk = Bytes.create 65536 in
        let rec drain () =
          match Unix.read b chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ();
        Buffer.contents buf)
  in
  Wap_serve.Http.write_all a payload;
  Unix.close a;
  let received = Domain.join reader in
  Unix.close b;
  Alcotest.(check int) "every byte arrives" (String.length payload)
    (String.length received);
  Alcotest.(check bool) "bytes arrive unmangled" true (received = payload)

let test_http_write_all_epipe () =
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.signal Sys.sigpipe previous))
    (fun () ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.close b;
      match
        Wap_serve.Http.write_all a (String.make (8 * 1024 * 1024) 'x')
      with
      | () -> Alcotest.fail "writing to a closed peer must raise"
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          Unix.close a)

(* ------------------------------------------------------------------ *)
(* Fuzz replay order.                                                  *)

let test_replay_sorted_order () =
  let dir = scratch_dir "seeds" in
  (* created deliberately out of name order: replay must not depend on
     the file system's directory order *)
  List.iter
    (fun f -> write_file (Filename.concat dir f) "<?php echo 1;\n")
    [ "zz_last.php"; "aa_first.php"; "mm_middle.php"; "ignored.txt" ];
  let order = ref [] in
  let recorder =
    {
      Wap_fuzz.Oracle.name = "order-recorder";
      describe = "records replay order";
      check =
        (fun _ case ->
          order := case.Wap_fuzz.Oracle.source :: !order;
          Wap_fuzz.Oracle.Fail "record");
    }
  in
  let report = Wap_fuzz.Driver.replay ~oracles:[ recorder ] dir in
  Alcotest.(check int) "three .php seeds replayed" 3 report.Wap_fuzz.Driver.cases;
  Alcotest.(check (list (option string)))
    "failures land in sorted seed order"
    [ Some (Filename.concat dir "aa_first.php");
      Some (Filename.concat dir "mm_middle.php");
      Some (Filename.concat dir "zz_last.php") ]
    (List.map
       (fun f -> f.Wap_fuzz.Driver.fl_seed_file)
       report.Wap_fuzz.Driver.failures)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wap_fleet"
    [
      ( "proto",
        [
          Alcotest.test_case "round-trips" `Quick test_proto_roundtrip;
          Alcotest.test_case "truncated values never read" `Quick
            test_proto_truncated_value;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "roots expand to sorted projects" `Quick
            test_discover;
          Alcotest.test_case "walk is sorted and relative" `Quick
            test_php_files_sorted_relative;
          Alcotest.test_case "walk enters each directory once" `Quick
            test_php_files_symlinks;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "merge is byte-deterministic" `Slow
            test_merge_determinism;
          Alcotest.test_case
            "shared-layer parse entries are reused across projects" `Slow
            test_shared_parse_entries;
          Alcotest.test_case "a fresh cache holds parse and analysis entries"
            `Slow test_cache_holds_parse_and_analysis_entries;
          Alcotest.test_case "a killed worker is retried" `Slow
            test_worker_death_retry;
          Alcotest.test_case "a twice-killed worker fails its project" `Slow
            test_worker_death_after_retry;
          Alcotest.test_case "a truncated result reads as a dead worker" `Slow
            test_torn_result;
        ] );
      ( "cache",
        [
          Alcotest.test_case "two handles share one directory" `Quick
            test_cache_two_handles_share_dir;
          Alcotest.test_case "truncated entry is a miss" `Quick
            test_cache_truncated_entry_is_a_miss;
          Alcotest.test_case "corrupted and foreign entries are misses" `Quick
            test_cache_corrupted_and_foreign_entries;
          Alcotest.test_case "invalidate drops memory and disk" `Quick
            test_cache_invalidate;
        ] );
      ( "http",
        [
          Alcotest.test_case "write_all survives short writes" `Quick
            test_http_write_all_socketpair;
          Alcotest.test_case "write_all raises on a dead peer" `Quick
            test_http_write_all_epipe;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "seed replay is sorted" `Quick
            test_replay_sorted_order;
        ] );
    ]
