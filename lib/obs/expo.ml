(** Prometheus text-format exposition of a {!Metrics} registry, plus
    the strict parser the tests read it back with. *)

(* ------------------------------------------------------------------ *)
(* Name and label plumbing.                                            *)

(* Prometheus metric names admit [a-zA-Z0-9_:] only; everything else
   (dots, slashes, spaces of the registry's free-form names) maps to
   '_'.  The mapping is lossy by design — the [families] table keeps
   the interesting tail (method, algorithm) as a label instead. *)
let sanitize (name : string) : string =
  let b = Buffer.create (String.length name + 4) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
          if i = 0 then Buffer.add_char b '_';
          Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let escape_label_value (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Registry names with these prefixes are exposed as ONE metric family
   with the name's tail as a label value — the Prometheus modeling of
   "the same measurement, partitioned": per-method request counts
   become [wap_serve_requests_total{method="..."}], per-method request
   latencies [wap_serve_request_seconds_bucket{method="...",le="..."}]. *)
let families =
  [
    ("serve.request_seconds.", "method");
    ("serve.errors.", "method");
    ("serve.requests.", "method");
    ("mining.train_seconds.", "algo");
  ]

(* (metric base name, extra labels) for a raw registry name. *)
let resolve (raw : string) : string * (string * string) list =
  let matching =
    List.filter
      (fun (prefix, _) ->
        String.length raw > String.length prefix
        && String.sub raw 0 (String.length prefix) = prefix)
      families
  in
  (* longest prefix wins, so nested families behave predictably *)
  match
    List.sort
      (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
      matching
  with
  | (prefix, label) :: _ ->
      let n = String.length prefix in
      let tail = String.sub raw n (String.length raw - n) in
      (* the prefix ends with the separator dot: drop it from the base *)
      ("wap_" ^ sanitize (String.sub prefix 0 (n - 1)), [ (label, tail) ])
  | [] -> ("wap_" ^ sanitize raw, [])

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
             labels)
      ^ "}"

(* Values print integral when they are, shortest-roundtrip otherwise —
   Prometheus parses both. *)
let fmt_value (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

type typ = Counter | Gauge | Histogram

let type_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* One family: every raw metric that resolved to the same base name,
   rendered under a single # HELP/# TYPE pair (Prometheus requires all
   samples of a metric to be contiguous). *)
let render_family buf ~base ~typ (lines : string list) =
  Printf.bprintf buf "# HELP %s wap metric %s\n" base base;
  Printf.bprintf buf "# TYPE %s %s\n" base (type_name typ);
  List.iter (Buffer.add_string buf) lines

let prometheus (r : Metrics.registry) : string =
  let snap = Metrics.snapshot r in
  (* group (base, typ) -> sample lines, preserving the registry's
     name-sorted order within and across groups *)
  let order = ref [] in
  let groups : (string * typ, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let add ~base ~typ line =
    match Hashtbl.find_opt groups (base, typ) with
    | Some l -> l := line :: !l
    | None ->
        Hashtbl.add groups (base, typ) (ref [ line ]);
        order := (base, typ) :: !order
  in
  List.iter
    (fun (raw, v) ->
      let base, labels = resolve raw in
      let base = base ^ "_total" in
      add ~base ~typ:Counter
        (Printf.sprintf "%s%s %d\n" base (render_labels labels) v))
    snap.Metrics.counters;
  List.iter
    (fun (raw, v) ->
      let base, labels = resolve raw in
      add ~base ~typ:Gauge
        (Printf.sprintf "%s%s %s\n" base (render_labels labels) (fmt_value v)))
    snap.Metrics.gauges;
  List.iter
    (fun (raw, (h : Metrics.hist_snapshot)) ->
      let base, labels = resolve raw in
      let cum = ref 0 in
      let bucket_lines =
        List.concat
          [
            List.mapi
              (fun i limit ->
                cum := !cum + h.Metrics.h_counts.(i);
                Printf.sprintf "%s_bucket%s %d\n" base
                  (render_labels (labels @ [ ("le", fmt_value limit) ]))
                  !cum)
              (Array.to_list h.Metrics.h_buckets);
            [
              Printf.sprintf "%s_bucket%s %d\n" base
                (render_labels (labels @ [ ("le", "+Inf") ]))
                h.Metrics.h_count;
              Printf.sprintf "%s_sum%s %s\n" base (render_labels labels)
                (fmt_value h.Metrics.h_sum);
              Printf.sprintf "%s_count%s %d\n" base (render_labels labels)
                h.Metrics.h_count;
            ];
          ]
      in
      List.iter (add ~base ~typ:Histogram) bucket_lines)
    snap.Metrics.histograms;
  let buf = Buffer.create 4096 in
  List.iter
    (fun (base, typ) ->
      let lines = List.rev !(Hashtbl.find groups (base, typ)) in
      render_family buf ~base ~typ lines)
    (List.rev !order);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Strict parser.                                                      *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

type parsed = {
  p_samples : sample list;  (** document order *)
  p_types : (string * string) list;  (** [# TYPE] lines, document order *)
}

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let parse_name line i0 =
  let n = String.length line in
  let rec go i = if i < n && is_name_char line.[i] then go (i + 1) else i in
  let j = go i0 in
  if j = i0 then Error (Printf.sprintf "expected a metric name at column %d" i0)
  else Ok (String.sub line i0 (j - i0), j)

(* one {k="v",...} block; strict about quoting and escapes *)
let parse_labels line i0 =
  let n = String.length line in
  let rec entries i acc =
    match parse_name line i with
    | Error e -> Error e
    | Ok (k, i) ->
        if i >= n || line.[i] <> '=' then Error "expected '=' after label name"
        else if i + 1 >= n || line.[i + 1] <> '"' then
          Error "expected '\"' after label '='"
        else
          let b = Buffer.create 16 in
          let rec value i =
            if i >= n then Error "unterminated label value"
            else
              match line.[i] with
              | '"' -> Ok (i + 1)
              | '\\' ->
                  if i + 1 >= n then Error "dangling escape in label value"
                  else (
                    (match line.[i + 1] with
                    | '\\' -> Buffer.add_char b '\\'
                    | '"' -> Buffer.add_char b '"'
                    | 'n' -> Buffer.add_char b '\n'
                    | c ->
                        Buffer.add_char b '\\';
                        Buffer.add_char b c);
                    value (i + 2))
              | c ->
                  Buffer.add_char b c;
                  value (i + 1)
          in
          (match value (i + 2) with
          | Error e -> Error e
          | Ok i ->
              let acc = (k, Buffer.contents b) :: acc in
              if i < n && line.[i] = ',' then entries (i + 1) acc
              else if i < n && line.[i] = '}' then Ok (List.rev acc, i + 1)
              else Error "expected ',' or '}' after label value")
  in
  entries i0 []

let parse_sample line =
  match parse_name line 0 with
  | Error e -> Error e
  | Ok (name, i) -> (
      let labels_result =
        if i < String.length line && line.[i] = '{' then
          parse_labels line (i + 1)
        else Ok ([], i)
      in
      match labels_result with
      | Error e -> Error e
      | Ok (labels, i) ->
          let rest = String.trim (String.sub line i (String.length line - i)) in
          if rest = "" then Error "missing sample value"
          else
            let value =
              match rest with
              | "+Inf" -> Some infinity
              | "-Inf" -> Some neg_infinity
              | "NaN" -> Some nan
              | s -> float_of_string_opt s
            in
            (match value with
            | None -> Error (Printf.sprintf "unparseable value %S" rest)
            | Some v -> Ok { s_name = name; s_labels = labels; s_value = v }))

let parse_text (text : string) : (parsed, string) result =
  let lines = String.split_on_char '\n' text in
  let rec go lineno samples types = function
    | [] -> Ok { p_samples = List.rev samples; p_types = List.rev types }
    | line :: rest -> (
        let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
        if line = "" then
          if rest = [] then go (lineno + 1) samples types rest
          else fail "blank line inside the document"
        else if String.length line >= 1 && line.[0] = '#' then
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: [ typ ] ->
              if not (String.for_all is_name_char name) then
                fail (Printf.sprintf "invalid metric name %S in # TYPE" name)
              else if
                not (List.mem typ [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
              then fail (Printf.sprintf "unknown type %S" typ)
              else go (lineno + 1) samples ((name, typ) :: types) rest
          | "#" :: "HELP" :: name :: _ ->
              if not (String.for_all is_name_char name) then
                fail (Printf.sprintf "invalid metric name %S in # HELP" name)
              else go (lineno + 1) samples types rest
          | _ -> fail (Printf.sprintf "malformed comment line %S" line)
        else
          match parse_sample line with
          | Error e -> fail e
          | Ok s -> go (lineno + 1) (s :: samples) types rest)
  in
  if text = "" then Ok { p_samples = []; p_types = [] }
  else if text.[String.length text - 1] <> '\n' then
    Error "document does not end with a newline"
  else go 1 [] [] lines

(* ------------------------------------------------------------------ *)
(* Process facts for the status document.                              *)

(* VmRSS from /proc/self/status (Linux); [None] elsewhere. *)
let rss_bytes () : int option =
  match open_in "/proc/self/status" with
  | exception _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                let prefix = "VmRSS:" in
                if
                  String.length line > String.length prefix
                  && String.sub line 0 (String.length prefix) = prefix
                then
                  (* the value is "\t  NNN kB": split on any blank *)
                  let fields =
                    String.split_on_char ' '
                      (String.map
                         (fun c -> if c = '\t' then ' ' else c)
                         (String.sub line (String.length prefix)
                            (String.length line - String.length prefix)))
                    |> List.filter (fun s -> s <> "")
                  in
                  match fields with
                  | kb :: _ ->
                      Option.map (fun n -> n * 1024) (int_of_string_opt kb)
                  | [] -> None
                else scan ()
          in
          scan ())
