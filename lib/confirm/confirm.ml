(** Dynamic confirmation of candidate vulnerabilities.

    The paper's authors confirmed every reported vulnerability manually
    (Section V-B: "All were confirmed by us manually").  This module
    mechanizes that step: it replays the program with a class-specific
    attack payload bound to the candidate's entry point, intercepts the
    sink, and checks whether the payload's active characters survived —
    running the {e real} sanitizer/validator semantics through the
    bounded evaluator. *)

open Wap_php
module VC = Wap_catalog.Vuln_class
module V = Value

type verdict =
  | Confirmed  (** the payload reached the sink with its teeth intact *)
  | Not_confirmed
      (** execution completed but the payload never reached the sink in
          exploitable form (blocked, sanitized, or neutralized) *)
  | Unsupported  (** this class cannot be replayed (e.g. stored XSS) *)
[@@deriving show, eq]

let marker = "PWNED"

(** The attack payload injected at the candidate's entry point, plus the
    check deciding whether a sink-argument string is still exploitable. *)
type attack = {
  payload : string;
  exploitable : string -> bool;
}

(* case-insensitive: strtolower() does not defuse SQL keywords, HTML
   tags or PHP function names *)
let contains hay needle =
  let hay = String.lowercase_ascii hay and needle = String.lowercase_ascii needle in
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* the needle present and not preceded by a backslash: an escaped quote
   is neutralized, an intact one is not *)
let contains_unescaped hay needle =
  let hay = String.lowercase_ascii hay and needle = String.lowercase_ascii needle in
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh
    && ((String.sub hay i nn = needle && (i = 0 || hay.[i - 1] <> '\\')) || go (i + 1))
  in
  nn > 0 && go 0

(* an unquoted shell metacharacter: ';' outside single quotes *)
let has_unquoted_semicolon s =
  let in_quote = ref false in
  let found = ref false in
  String.iter
    (fun c ->
      if c = '\'' then in_quote := not !in_quote
      else if c = ';' && not !in_quote then found := true)
    s;
  !found

let attack_for (vclass : VC.t) : attack option =
  match vclass with
  | VC.Sqli | VC.Wp_sqli | VC.Xpathi | VC.Nosqli ->
      Some
        {
          payload = Printf.sprintf "' OR '%s'='%s" marker marker;
          (* exploitable as long as a quote right before the marker
             survives unescaped — an attacker adapts the rest of the
             payload to whatever mangling the flow applies *)
          exploitable = (fun s -> contains_unescaped s ("'" ^ marker));
        }
  | VC.Xss_reflected ->
      Some
        {
          payload = Printf.sprintf "<script>%s()</script>" marker;
          exploitable = (fun s -> contains s ("<script>" ^ marker));
        }
  | VC.Hi | VC.Ei ->
      Some
        {
          payload = Printf.sprintf "x\r\nX-%s: 1" marker;
          exploitable = (fun s -> contains s ("\r\nX-" ^ marker));
        }
  | VC.Osci ->
      Some
        {
          payload = Printf.sprintf "; echo %s" marker;
          exploitable =
            (fun s -> contains s marker && has_unquoted_semicolon s);
        }
  | VC.Phpci ->
      Some
        {
          payload = Printf.sprintf "1; %s();" marker;
          exploitable = (fun s -> contains s (marker ^ "();"));
        }
  | VC.Rfi | VC.Lfi | VC.Dt_pt | VC.Scd ->
      Some
        {
          payload = "../../" ^ marker;
          exploitable = (fun s -> contains s ("../../" ^ marker));
        }
  | VC.Ldapi ->
      Some
        {
          payload = Printf.sprintf "*)(uid=%s" marker;
          exploitable = (fun s -> contains s ("*)(uid=" ^ marker));
        }
  | VC.Cs ->
      Some
        {
          payload = Printf.sprintf "visit http://%s.example.com/" marker;
          exploitable = (fun s -> contains s ("http://" ^ marker));
        }
  | VC.Sf ->
      Some
        {
          (* any attacker-chosen token accepted as session id is a fix *)
          payload = marker ^ "SESSION1234567890";
          exploitable = (fun s -> contains s (marker ^ "SESSION"));
        }
  | VC.Xss_stored (* needs a database round-trip *) | VC.Custom _ -> None

(* sinks whose events we accept for a class, besides an exact
   sink-name match *)
let sink_names (vclass : VC.t) : string list =
  let spec = Wap_catalog.Catalog.default_spec vclass in
  List.concat_map
    (function
      | Wap_catalog.Catalog.Sink_fn (f, _) -> [ String.lowercase_ascii f ]
      | Wap_catalog.Catalog.Sink_method (o, m) ->
          [ String.lowercase_ascii o ^ "->" ^ String.lowercase_ascii m ]
      | Wap_catalog.Catalog.Sink_echo -> [ "echo"; "print"; "printf"; "print_r" ]
      | Wap_catalog.Catalog.Sink_include -> [ "include" ])
    spec.Wap_catalog.Catalog.sinks

(* parse "$_GET['id']" into (superglobal, key) *)
let parse_source (source : string) : (string * string) option =
  if String.length source > 3 && String.sub source 0 2 = "$_" then begin
    match String.index_opt source '[' with
    | Some lb ->
        let sg = String.sub source 1 (lb - 1) in
        let rest = String.sub source (lb + 1) (String.length source - lb - 1) in
        let key =
          String.to_seq rest
          |> Seq.filter (fun c -> c <> '\'' && c <> '"' && c <> ']')
          |> String.of_seq
        in
        Some (sg, key)
    | None -> Some (String.sub source 1 (String.length source - 1), "")
  end
  else None

(** Replay [program] against [candidate] with the class payload.

    The candidate's entry point receives the payload; every other input
    gets a benign numeric-ish default (so unrelated guards pass).  The
    verdict is [Confirmed] iff a sink event of the candidate's class —
    at the candidate's sink line when events repeat — carries the
    payload in exploitable form. *)
let confirm_candidate ~(program : Ast.program)
    (candidate : Wap_taint.Trace.candidate) : verdict =
  match attack_for candidate.Wap_taint.Trace.vclass with
  | None -> Unsupported
  | Some attack -> (
      let origin = Wap_taint.Trace.primary candidate in
      match parse_source origin.Wap_taint.Trace.source with
      | None -> Unsupported
      | Some (target_sg, target_key) ->
          let sinks = sink_names candidate.Wap_taint.Trace.vclass in
          let confirmed = ref false in
          let input ~superglobal ~key =
            if String.equal superglobal target_sg
               && (String.equal key target_key || target_key = "")
            then V.Str attack.payload
            else V.Str "7"
          in
          let input_array ~superglobal =
            if String.equal superglobal target_sg then
              [ (V.Str (if target_key = "" then "k" else target_key), V.Str attack.payload) ]
            else [ (V.Str "k", V.Str "7") ]
          in
          let sink_line = candidate.Wap_taint.Trace.sink_loc.Loc.line in
          let on_event (ev : Evaluator.event) =
            if List.mem ev.Evaluator.ev_name sinks
               && ev.Evaluator.ev_loc.Loc.line = sink_line
            then
              let hit =
                List.exists
                  (fun arg ->
                    match arg with
                    | V.Arr pairs ->
                        List.exists
                          (fun (_, v) -> attack.exploitable (V.to_string v))
                          pairs
                    | v -> attack.exploitable (V.to_string v))
                  ev.Evaluator.ev_args
              in
              if hit then confirmed := true
          in
          let cfg =
            { Evaluator.input; input_array; on_event; max_steps = 200_000 }
          in
          (* start at the flow's entry point so an unrelated earlier
             flow's die() cannot mask it *)
          let start_line =
            min origin.Wap_taint.Trace.source_loc.Loc.line sink_line
          in
          (match Evaluator.run ~start_line cfg program with
          | Evaluator.Completed | Evaluator.Exited | Evaluator.Uncaught _ -> ()
          | Evaluator.Timed_out -> ());
          if !confirmed then Confirmed else Not_confirmed)

(* [replay units] indexes [units] once, for every candidate of a scan *)
let replay (units : Wap_taint.Analyzer.file_unit list) :
    Wap_taint.Trace.candidate -> verdict =
  let by_file = Hashtbl.create 16 in
  List.iter
    (fun (u : Wap_taint.Analyzer.file_unit) ->
      Hashtbl.replace by_file u.Wap_taint.Analyzer.path u.Wap_taint.Analyzer.program)
    units;
  fun cand ->
    match Hashtbl.find_opt by_file cand.Wap_taint.Trace.file with
    | None -> Unsupported
    | Some program -> confirm_candidate ~program cand

let label = function
  | Confirmed -> "exploit confirmed"
  | Not_confirmed -> "exploit not reproduced"
  | Unsupported -> "not replayable"

let confirm_batch units candidates : int * int * int =
  let replay = replay units in
  List.fold_left
    (fun (c, n, u) cand ->
      match replay cand with
      | Confirmed -> (c + 1, n, u)
      | Not_confirmed -> (c, n + 1, u)
      | Unsupported -> (c, n, u + 1))
    (0, 0, 0) candidates
