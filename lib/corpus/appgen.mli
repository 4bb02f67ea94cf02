(** Synthetic application generator.

    Builds complete PHP packages from a profile: the requested number of
    files, with the profile's real vulnerabilities, false-positive
    candidates and a sprinkling of sanitized flows distributed over
    them, embedded in benign filler code.  Everything is deterministic
    in the seed. *)

module VC := Wap_catalog.Vuln_class

type file = { f_name : string; f_source : string }

(** One ground-truth entry: a seeded snippet and where it landed. *)
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

(** Total generated lines of code. *)
val loc_of_package : package -> int

(** Ground-truth entries with the given label. *)
val count_label : package -> Snippet.label -> int

(** Generate a package from explicit counts.  [vulns] are the real
    vulnerabilities per class; [vuln_files] bounds how many distinct
    files carry them; [fp_easy]/[fp_hard] add false-positive candidates;
    [sanitized] adds protected flows the detector must stay silent
    about. *)
val generate :
  seed:int ->
  kind:kind ->
  name:string ->
  version:string ->
  files:int ->
  vuln_files:int ->
  vulns:(VC.t * int) list ->
  fp_easy:int ->
  fp_hard:int ->
  sanitized:int ->
  unit ->
  package

(** Instantiate a web application profile (Tables V/VI). *)
val of_webapp_profile : seed:int -> Profiles.app_profile -> package

(** Instantiate a WordPress plugin profile (Table VII). *)
val of_plugin_profile : seed:int -> Profiles.plugin_profile -> package
