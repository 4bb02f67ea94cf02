(** Synthetic application generator.

    Builds complete PHP packages from a profile: the requested number of
    files, with the profile's real vulnerabilities, false-positive
    candidates and a sprinkling of sanitized flows distributed over
    them, embedded in benign filler code.  Everything is deterministic
    in the seed. *)

module VC = Wap_catalog.Vuln_class

type file = { f_name : string; f_source : string }

type seeded = {
  sd_class : VC.t;
  sd_label : Snippet.label;
  sd_file : string;
  sd_line_lo : int;  (** first line of the seeded snippet (1-based) *)
  sd_line_hi : int;  (** last line of the seeded snippet *)
}

type kind = Webapp | Plugin

type package = {
  pkg_name : string;
  pkg_version : string;
  pkg_kind : kind;
  pkg_files : file list;
  pkg_seeded : seeded list;  (** ground truth *)
}

let loc_of_package p =
  List.fold_left
    (fun acc f ->
      acc + List.length (String.split_on_char '\n' f.f_source))
    0 p.pkg_files

(* count ground-truth entries by label *)
let count_label p label =
  List.length (List.filter (fun s -> Snippet.equal_label s.sd_label label) p.pkg_seeded)

(* ------------------------------------------------------------------ *)

let hash_name name =
  (* stable across runs, unlike Hashtbl.hash on boxed values in theory;
     simple FNV-1a *)
  let h = ref 2166136261 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 16777619 land 0x3FFFFFFF) name;
  !h

(* expand per-class counts into a snippet work list *)
let expand_vulns vulns : (VC.t * Snippet.label) list =
  List.concat_map (fun (c, n) -> List.init n (fun _ -> (c, Snippet.Real))) vulns

let fp_classes vulns =
  (* false positives are seeded in the classes the app actually uses,
     defaulting to SQLI/XSS; session fixation is excluded because
     input validation cannot make an SF flow a false positive *)
  match List.filter (fun c -> c <> VC.Sf) (List.map fst vulns) with
  | [] -> [ VC.Sqli; VC.Xss_reflected ]
  | cs -> cs

let file_name kind i =
  match kind with
  | Webapp ->
      let stems =
        [| "index"; "admin"; "view"; "edit"; "list"; "login"; "profile"; "search";
           "report"; "config"; "util"; "page"; "export"; "gallery"; "comment" |]
      in
      Printf.sprintf "%s_%d.php" stems.(i mod Array.length stems) i
  | Plugin ->
      let stems = [| "plugin"; "admin"; "widget"; "shortcode"; "settings"; "ajax" |] in
      Printf.sprintf "%s_%d.php" stems.(i mod Array.length stems) i

(* assemble one file's source from benign filler + seeded snippet codes;
   returns the file plus the ground-truth entries with line ranges *)
let render_file ~kind ~g ~name (snips : Snippet.t list) : file * seeded list =
  let b = Buffer.create 1024 in
  let line = ref 1 in
  let add s =
    String.iter (fun c -> if c = '\n' then incr line) s;
    Buffer.add_string b s
  in
  let cur_line () = !line in
  add "<?php\n";
  (match kind with
  | Plugin ->
      add (Printf.sprintf "/*\n * Plugin file %s\n * Generated corpus member.\n */\n" name)
  | Webapp -> add (Printf.sprintf "// %s - generated corpus member\n" name));
  let needs_escape_helper =
    List.exists
      (fun (s : Snippet.t) ->
        Snippet.equal_label s.Snippet.label Snippet.Fp_hard
        &&
        (* only flows that call escape() need the helper; cheap over-approx *)
        let rec contains h n i =
          i + String.length n <= String.length h
          && (String.sub h i (String.length n) = n || contains h n (i + 1))
        in
        contains s.Snippet.code "escape(" 0)
      snips
  in
  if needs_escape_helper then begin
    add Snippet.escape_helper;
    add "\n"
  end;
  let n_benign = 2 + Random.State.int g.Snippet.rng 3 in
  for _ = 1 to n_benign do
    add (Snippet.benign g);
    add "\n"
  done;
  let seeded =
    List.map
      (fun (s : Snippet.t) ->
        let lo = cur_line () in
        add s.Snippet.code;
        add "\n";
        let hi = cur_line () - 1 in
        { sd_class = s.Snippet.vclass; sd_label = s.Snippet.label; sd_file = name;
          sd_line_lo = lo; sd_line_hi = hi })
      snips
  in
  ({ f_name = name; f_source = Buffer.contents b }, seeded)

(** Generate a package from counts.

    [vulns] are the real vulnerabilities per class; [vuln_files] bounds
    how many distinct files carry them; [fp_easy]/[fp_hard] add
    false-positive candidates; [sanitized] adds protected flows the
    detector must stay silent about. *)
let generate ~seed ~kind ~name ~version ~files:n_files ~vuln_files ~vulns
    ~fp_easy ~fp_hard ~sanitized () : package =
  let g = Snippet.make_gen ~seed:(seed + hash_name (name ^ version)) in
  let work_real = expand_vulns vulns in
  let fpc = fp_classes vulns in
  let pick_fp i = List.nth fpc (i mod List.length fpc) in
  let work_fp_easy = List.init fp_easy (fun i -> (pick_fp i, Snippet.Fp_easy)) in
  let work_fp_hard = List.init fp_hard (fun i -> (pick_fp (i + 1), Snippet.Fp_hard)) in
  let san_classes =
    [ VC.Sqli; VC.Xss_reflected; VC.Dt_pt; VC.Osci; VC.Cs; VC.Wp_sqli ]
  in
  let work_san =
    List.init sanitized (fun i ->
        ( (match kind with
          | Plugin -> if i mod 2 = 0 then VC.Wp_sqli else VC.Xss_reflected
          | Webapp -> List.nth san_classes (i mod List.length san_classes)),
          Snippet.Sanitized ))
  in
  let n_files = max n_files 1 in
  (* real vulnerabilities go into the first [nv] files *)
  let nv = max 1 (min vuln_files (max 1 (List.length work_real))) in
  let nv = min nv n_files in
  let buckets = Array.make n_files [] in
  List.iteri
    (fun i (c, label) ->
      let fi = i mod nv in
      buckets.(fi) <- (c, label) :: buckets.(fi))
    work_real;
  (* FPs and sanitized flows spread over all files *)
  List.iteri
    (fun i (c, label) ->
      let fi = (hash_name name + (i * 7)) mod n_files in
      buckets.(fi) <- (c, label) :: buckets.(fi))
    (work_fp_easy @ work_fp_hard @ work_san);
  let files = ref [] and seeded = ref [] in
  for i = 0 to n_files - 1 do
    let fname = file_name kind i in
    let snips =
      List.rev_map (fun (c, label) -> Snippet.generate g c label) buckets.(i)
    in
    let file, entries = render_file ~kind ~g ~name:fname snips in
    files := file :: !files;
    seeded := List.rev_append entries !seeded
  done;
  {
    pkg_name = name;
    pkg_version = version;
    pkg_kind = kind;
    pkg_files = List.rev !files;
    pkg_seeded = List.rev !seeded;
  }

(** Instantiate a web application profile. *)
let of_webapp_profile ~seed (p : Profiles.app_profile) : package =
  generate ~seed ~kind:Webapp ~name:p.Profiles.ap_name ~version:p.Profiles.ap_version
    ~files:p.Profiles.ap_files ~vuln_files:p.Profiles.ap_vuln_files
    ~vulns:p.Profiles.ap_vulns ~fp_easy:p.Profiles.ap_fp_easy
    ~fp_hard:p.Profiles.ap_fp_hard
    ~sanitized:(2 + (p.Profiles.ap_files / 40))
    ()

(** Instantiate a WordPress plugin profile. *)
let of_plugin_profile ~seed (p : Profiles.plugin_profile) : package =
  generate ~seed ~kind:Plugin ~name:p.Profiles.pp_name ~version:p.Profiles.pp_version
    ~files:p.Profiles.pp_files
    ~vuln_files:(max 1 (List.length p.Profiles.pp_vulns))
    ~vulns:p.Profiles.pp_vulns ~fp_easy:p.Profiles.pp_fp_easy
    ~fp_hard:p.Profiles.pp_fp_hard ~sanitized:2 ()
