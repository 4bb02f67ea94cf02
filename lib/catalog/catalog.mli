(** Entry points, sensitive sinks and sanitization functions per
    vulnerability class.

    In the restructured WAP these three sets live in external files (the
    ep/ss/san files of Fig. 2) so users can extend a detector without
    recompiling; {!Spec_file} provides that serialization.  This module
    defines the shipped defaults. *)

type source =
  | Src_superglobal of string  (** e.g. [_GET]: any [$_GET[...]] access *)
  | Src_fn of string
      (** a function whose return value is attacker-controlled, e.g.
          database fetch results for stored XSS *)
[@@deriving show, eq, ord]

type sink =
  | Sink_fn of string * int list
      (** named function; the int list is the set of dangerous argument
          positions (empty = any argument) *)
  | Sink_method of string * string
      (** [obj, method]: method call on a named variable, e.g.
          [$wpdb->query] — obj is matched without the [$] *)
  | Sink_echo  (** [echo] / [print] / [printf] output constructs *)
  | Sink_include  (** [include] / [require] constructs *)
[@@deriving show, eq, ord]

type sanitizer =
  | San_fn of string
  | San_method of string * string  (** e.g. [$wpdb->prepare] *)
[@@deriving show, eq, ord]

(** One detector's configuration. *)
type spec = {
  vclass : Vuln_class.t;
  submodule : Submodule.t;
  sources : source list;
  sinks : sink list;
  sanitizers : sanitizer list;
}
[@@deriving show, eq]

(** The superglobal arrays every detector treats as tainted input. *)
val default_superglobals : string list

val default_sources : source list

(** The name of the fix function the corrector inserts for a class
    (always registered as a sanitizer, so corrected code is not
    re-flagged).  Matches [Wap_fixer.Fix.stock]. *)
val stock_fix_name : Vuln_class.t -> string

(** The shipped detector configuration of a class (Table IV and
    Section IV-C for the new classes); always includes
    {!stock_fix_name} among the sanitizers. *)
val default_spec : Vuln_class.t -> spec

(** [specs_for classes] = [List.map default_spec classes]. *)
val specs_for : Vuln_class.t list -> spec list

(** Content-derived identity of one spec: the digest of its marshalled
    form without sharing, so equal specs get equal ids however they
    were built; used as cache-key material. *)
val spec_id : spec -> string

(** Identity of an ordered spec set; the order is part of it (it
    determines the deterministic merge order of scan results). *)
val set_fingerprint : spec list -> string

(** Fast membership structures derived from a spec set, used by the
    taint analyzer on every call site.

    Tables are indexed by {e spec id} — the position of a spec in the
    list given to {!Lookup.of_specs} — so one fused analysis pass can ask
    "for which of the active specs is [name] a source/sink/sanitizer?"
    in a single lookup.  All [*_ids] results are ascending and
    duplicate-free. *)
module Lookup : sig
  type t

  val of_specs : spec list -> t

  (** Number of specs the table was built from. *)
  val nspecs : t -> int

  (** Specs treating [$name] as a tainted superglobal (exact case). *)
  val superglobal_ids : t -> string -> int list

  (** Specs treating a call of [name] as an entry point. *)
  val source_fn_ids : t -> string -> int list

  (** All (spec id, class, dangerous positions) sink entries for a
      function name; ids ascending, one spec's own entries in its
      single-spec [find_all] order (most recently declared first). *)
  val sink_fn_entries : t -> string -> (int * Vuln_class.t * int list) list

  (** Specs with an [obj->meth] sink; the object ["*"] matches any
      variable. *)
  val sink_method_ids : t -> string -> string -> int list

  (** Specs sinking on [echo]/[print] constructs. *)
  val echo_ids : t -> int list

  (** Specs sinking on [include]/[require] constructs. *)
  val include_ids : t -> int list

  val sanitizer_fn_ids : t -> string -> int list
  val sanitizer_method_ids : t -> string -> string -> int list
end
