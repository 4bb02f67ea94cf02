(* The fuzz loop: generate, check, shrink, persist.

   Determinism contract: one (seed, iteration) pair always regenerates
   the same case — the per-iteration generator is derived from both —
   so a failure report names everything needed to reproduce it without
   the seed file. *)

type config = {
  seed : int;
  iterations : int;
  max_stmts : int;  (** top-level statement bound per generated program *)
  oracles : Oracle.t list;
  out_seed_dir : string option;
      (** where shrunk reproducers are written; [None] disables *)
  max_failures : int;  (** stop fuzzing after this many violations *)
  shrink_budget : int;  (** oracle evaluations allowed per shrink *)
}

let default_config =
  {
    seed = 2016;
    iterations = 500;
    max_stmts = 10;
    oracles = Oracle.all;
    out_seed_dir = None;
    max_failures = 5;
    shrink_budget = 400;
  }

type failure = {
  fl_oracle : string;
  fl_iteration : int;  (** -1 for replayed seed files *)
  fl_message : string;
  fl_source : string;  (** shrunk reproducer *)
  fl_seed_file : string option;
}

type report = { cases : int; failures : failure list }

let case_rng seed i = Rng.create ~seed:(seed + (i * 1_000_003))

(* Build one case from its (seed, iteration) coordinates: a generated
   program, printed; one in four also gets raw "spice" fragments the
   AST cannot express and drops the AST (totality-style oracles only
   can judge it). *)
let case_at ~seed ~max_stmts i : Oracle.case =
  let rng = case_rng seed i in
  let ast = Gen.program ~max_stmts rng in
  let printed = Wap_php.Printer.program_to_string ast in
  if Rng.chance rng 1 4 then
    { Oracle.source = Gen.spice rng printed; gen_ast = None }
  else { Oracle.source = printed; gen_ast = Some ast }

let default_ctx () =
  { Oracle.tool = lazy (Wap_core.Tool.create ~seed:2016 Wap_core.Version.Wape) }

let ctx_of_tool = function
  | Some tool -> { Oracle.tool = lazy tool }
  | None -> default_ctx ()

let fails_on (oracle : Oracle.t) ctx case =
  match oracle.check ctx case with
  | Oracle.Fail _ -> true
  | Oracle.Pass -> false
  | exception _ -> true
      (* an oracle blowing up on a shrunk variant still reproduces *)

let shrink_case ~budget (oracle : Oracle.t) ctx (case : Oracle.case) : string =
  match case.gen_ast with
  | Some ast ->
      let fails p =
        fails_on oracle ctx
          {
            Oracle.source = Wap_php.Printer.program_to_string p;
            gen_ast = Some p;
          }
      in
      Wap_php.Printer.program_to_string (Shrink.program ~budget ~fails ast)
  | None ->
      let fails s = fails_on oracle ctx (Oracle.case_of_source s) in
      Shrink.source ~budget ~fails case.source

let write_seed dir name source =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  output_string oc source;
  close_out oc;
  path

let run ?tool ?(on_case = fun _ _ -> ()) (config : config) : report =
  let ctx = ctx_of_tool tool in
  let failures = ref [] in
  let i = ref 0 in
  while !i < config.iterations && List.length !failures < config.max_failures do
    let case = case_at ~seed:config.seed ~max_stmts:config.max_stmts !i in
    List.iter
      (fun (oracle : Oracle.t) ->
        let verdict =
          try oracle.check ctx case
          with exn ->
            Oracle.Fail
              (Printf.sprintf "oracle raised %s" (Printexc.to_string exn))
        in
        match verdict with
        | Oracle.Pass -> ()
        | Oracle.Fail msg ->
            let shrunk =
              shrink_case ~budget:config.shrink_budget oracle ctx case
            in
            let seed_file =
              Option.map
                (fun dir ->
                  write_seed dir
                    (Printf.sprintf "%s-seed%d-i%d.php" oracle.name config.seed
                       !i)
                    shrunk)
                config.out_seed_dir
            in
            failures :=
              {
                fl_oracle = oracle.name;
                fl_iteration = !i;
                fl_message = msg;
                fl_source = shrunk;
                fl_seed_file = seed_file;
              }
              :: !failures)
      config.oracles;
    incr i;
    on_case !i config.iterations
  done;
  { cases = !i; failures = List.rev !failures }

(* Replay checked-in regression seeds: every .php file in [dir] must
   pass every requested oracle.  No shrinking — seeds are already
   minimal. *)
let replay ?tool ?(oracles = Oracle.all) dir : report =
  let ctx = ctx_of_tool tool in
  let files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".php")
      |> List.sort String.compare
    else []
  in
  let failures = ref [] in
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let source = Wap_php.Io.read_file path in
      let case = Oracle.case_of_source source in
      List.iter
        (fun (oracle : Oracle.t) ->
          let verdict =
            try oracle.check ctx case
            with exn ->
              Oracle.Fail
                (Printf.sprintf "oracle raised %s" (Printexc.to_string exn))
          in
          match verdict with
          | Oracle.Pass -> ()
          | Oracle.Fail msg ->
              failures :=
                {
                  fl_oracle = oracle.name;
                  fl_iteration = -1;
                  fl_message = msg;
                  fl_source = source;
                  fl_seed_file = Some path;
                }
                :: !failures)
        oracles)
    files;
  { cases = List.length files; failures = List.rev !failures }
