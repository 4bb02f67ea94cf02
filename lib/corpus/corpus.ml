(** Top-level corpus API: the full evaluation workloads.

    The corpus substitutes for the paper's 54 real web-application
    packages and 115 WordPress plugins (see DESIGN.md §3): every package
    is regenerated deterministically from a seed, with ground truth
    attached. *)

module VC = Wap_catalog.Vuln_class

let default_seed = 2016

(** The 54 web application packages of Section V-A. *)
let webapps ?(seed = default_seed) () :
    (Profiles.app_profile * Appgen.package) list =
  List.map
    (fun p -> (p, Appgen.of_webapp_profile ~seed p))
    Profiles.all_webapps

(** Only the 17 packages with seeded vulnerabilities (Table V rows). *)
let vulnerable_webapps ?(seed = default_seed) () =
  List.map
    (fun p -> (p, Appgen.of_webapp_profile ~seed p))
    Profiles.vulnerable_webapps

(** The 115 WordPress plugins of Section V-B. *)
let plugins ?(seed = default_seed) () :
    (Profiles.plugin_profile * Appgen.package) list =
  List.map
    (fun p -> (p, Appgen.of_plugin_profile ~seed p))
    Profiles.all_plugins

let vulnerable_plugins ?(seed = default_seed) () =
  List.map
    (fun p -> (p, Appgen.of_plugin_profile ~seed p))
    Profiles.vulnerable_plugins

(* ------------------------------------------------------------------ *)
(* Fleet workloads: many projects over one shared framework layer.     *)

(* The WordPress-core stand-in: a benign, function-heavy layer shipped
   verbatim inside every generated project, under [_shared/] so it
   sorts (and is therefore scanned) before the project's own files —
   '_' orders before every lowercase stem.  Its files have the same
   relative paths and sources in every project, so a fleet sharing a
   cache directory parses the layer once fleet-wide. *)
let shared_layer ?(seed = default_seed) () : Appgen.file list =
  let core =
    Appgen.generate ~seed:(seed * 127 + 13) ~kind:Appgen.Plugin
      ~name:"shared-core" ~version:"6.0" ~files:6 ~vuln_files:0 ~vulns:[]
      ~fp_easy:0 ~fp_hard:0 ~sanitized:0 ()
  in
  List.mapi
    (fun i (f : Appgen.file) ->
      (* core_<i>.php: basenames distinct from any plugin stem, so
         include splicing inside a project never resolves a project
         file to a framework one by accident *)
      { f with Appgen.f_name = Printf.sprintf "_shared/core_%d.php" i })
    core.Appgen.pkg_files

(** [count] plugin-like projects, each carrying the identical
    {!shared_layer} prefix plus its own seeded files — the workload
    [wap fleet] shards across workers.  Ground truth ([pkg_seeded])
    covers only the per-project files; the shared layer is benign. *)
let generated_projects ?(seed = default_seed) ?(files = 4) ~count () :
    (string * Appgen.package) list =
  let shared = shared_layer ~seed () in
  List.init count (fun i ->
      let name = Printf.sprintf "proj_%03d" i in
      let own =
        Appgen.generate ~seed:(seed + (i * 1009) + 17) ~kind:Appgen.Plugin
          ~name ~version:"1.0" ~files ~vuln_files:2
          ~vulns:[ (VC.Sqli, 1); (VC.Xss_reflected, 1) ]
          ~fp_easy:1 ~fp_hard:0 ~sanitized:1 ()
      in
      (name, { own with Appgen.pkg_files = shared @ own.Appgen.pkg_files }))

(* ------------------------------------------------------------------ *)
(* Training material for the false-positive predictor.                 *)

type training_program = {
  tp_source : string;  (** a small PHP program with exactly one candidate flow *)
  tp_class : VC.t;
  tp_is_fp : bool;  (** ground-truth label *)
}

let training_classes =
  [ VC.Sqli; VC.Xss_reflected; VC.Xss_stored; VC.Dt_pt; VC.Osci; VC.Hi;
    VC.Ldapi; VC.Nosqli; VC.Wp_sqli; VC.Lfi; VC.Ei ]

(** Candidate programs for building the training data set: [n] labelled
    single-flow programs per label (real vulnerability / false
    positive), spread over the vulnerability classes.  A small share of
    the false positives are "hard" ones, mirroring the noise the paper
    removed from its data set. *)
let training_programs ?(seed = default_seed) ?(legacy = false) ~per_label () :
    training_program list =
  let g = Snippet.make_gen ~seed:(seed * 31 + 7) in
  let mk i label =
    let vclass = List.nth training_classes (i mod List.length training_classes) in
    let snip = Snippet.generate ~legacy g vclass label in
    let needs_helper =
      let rec contains h n j =
        j + String.length n <= String.length h
        && (String.sub h j (String.length n) = n || contains h n (j + 1))
      in
      contains snip.Snippet.code "escape(" 0
    in
    {
      tp_source =
        "<?php\n"
        ^ (if needs_helper then Snippet.escape_helper ^ "\n" else "")
        ^ snip.Snippet.code ^ "\n";
      tp_class = vclass;
      tp_is_fp = (match label with Snippet.Real -> false | _ -> true);
    }
  in
  let reals = List.init per_label (fun i -> mk i Snippet.Real) in
  let n_hard = per_label / 16 in
  let fps =
    List.init (per_label - n_hard) (fun i -> mk i Snippet.Fp_easy)
    @ List.init n_hard (fun i -> mk i Snippet.Fp_hard)
  in
  reals @ fps

(* ------------------------------------------------------------------ *)
(* Ground-truth summaries, used to validate runs against profiles.     *)

type truth = {
  t_real : int;
  t_fp : int;  (** easy + hard false-positive candidates *)
  t_sanitized : int;
  t_real_by_group : (string * int) list;
}

let truth_of_package (p : Appgen.package) : truth =
  let count label =
    List.length
      (List.filter
         (fun s -> Snippet.equal_label s.Appgen.sd_label label)
         p.Appgen.pkg_seeded)
  in
  let by_group =
    List.fold_left
      (fun acc (s : Appgen.seeded) ->
        if Snippet.equal_label s.Appgen.sd_label Snippet.Real then begin
          let grp = VC.report_group s.Appgen.sd_class in
          let cur = try List.assoc grp acc with Not_found -> 0 in
          (grp, cur + 1) :: List.remove_assoc grp acc
        end
        else acc)
      [] p.Appgen.pkg_seeded
  in
  {
    t_real = count Snippet.Real;
    t_fp = count Snippet.Fp_easy + count Snippet.Fp_hard;
    t_sanitized = count Snippet.Sanitized;
    t_real_by_group = by_group;
  }
