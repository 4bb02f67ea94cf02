(** Training data for the false-positive predictor.

    An instance is one candidate vulnerability encoded as a binary
    attribute vector plus its manually assigned class: [true] when the
    candidate is a false positive, [false] when it is a real
    vulnerability — the Yes/No of Table III. *)

type instance = {
  features : float array;
  label : bool;  (** [true] = false positive (class Yes) *)
}

type t = {
  mode : Attributes.mode;
  instances : instance list;
}

let size d = List.length d.instances
let positives d = List.length (List.filter (fun i -> i.label) d.instances)
let negatives d = size d - positives d

let make ~mode instances = { mode; instances }

let of_evidence ~mode (labelled : (Evidence.t * bool) list) : t =
  {
    mode;
    instances =
      List.map
        (fun (ev, label) ->
          { features = Attributes.vector_of_evidence mode ev; label })
        labelled;
  }

(* ------------------------------------------------------------------ *)
(* Noise elimination (Section III-B1): duplicated instances are kept
   once; ambiguous ones (same features, both labels) are removed.       *)

let feature_key fs =
  String.init (Array.length fs) (fun i -> if fs.(i) > 0.5 then '1' else '0')

let deduplicate (d : t) : t =
  let tbl : (string, bool list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun inst ->
      let k = feature_key inst.features in
      match Hashtbl.find_opt tbl k with
      | Some labels -> labels := inst.label :: !labels
      | None ->
          Hashtbl.add tbl k (ref [ inst.label ]);
          order := (k, inst.features) :: !order)
    d.instances;
  let keep =
    List.filter_map
      (fun (k, features) ->
        let labels = !(Hashtbl.find tbl k) in
        let fp = List.length (List.filter Fun.id labels) in
        let rv = List.length labels - fp in
        if fp > 0 && rv > 0 then None (* ambiguous: drop *)
        else Some { features; label = fp > 0 })
      (List.rev !order)
  in
  { d with instances = keep }

(** Balance the data set to [n/2] false positives and [n/2] real
    vulnerabilities (the paper's 256-instance set is balanced).  When
    one class is short the result is as large as possible while staying
    balanced. *)
let balance ?n (d : t) : t =
  let fps = List.filter (fun i -> i.label) d.instances in
  let rvs = List.filter (fun i -> not i.label) d.instances in
  let half =
    match n with
    | Some n -> min (n / 2) (min (List.length fps) (List.length rvs))
    | None -> min (List.length fps) (List.length rvs)
  in
  let take k l =
    let rec go k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: go (k - 1) tl
    in
    go k l
  in
  { d with instances = take half fps @ take half rvs }

(** Take up to [fp] false-positive and [rv] real-vulnerability
    instances — the original WAP's set was unbalanced (32 FP / 44 RV). *)
let take_split ~fp ~rv (d : t) : t =
  let fps = List.filter (fun i -> i.label) d.instances in
  let rvs = List.filter (fun i -> not i.label) d.instances in
  let take k l =
    List.filteri (fun i _ -> i < k) l
  in
  { d with instances = take fp fps @ take rv rvs }

(** Deterministic shuffle. *)
let shuffle ~seed (d : t) : t =
  let rng = Random.State.make [| seed |] in
  let arr = Array.of_list d.instances in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  { d with instances = Array.to_list arr }

(* ------------------------------------------------------------------ *)
(* Stratified k-fold split.                                            *)

(** [stratified_folds ~k d] partitions the instances into [k] folds,
    preserving the class ratio in each fold.  Returns a list of
    (train, test) pairs. *)
let stratified_folds ~k (d : t) : (t * t) list =
  let fps = List.filter (fun i -> i.label) d.instances in
  let rvs = List.filter (fun i -> not i.label) d.instances in
  let assign instances =
    List.mapi (fun i inst -> (i mod k, inst)) instances
  in
  let tagged = assign fps @ assign rvs in
  List.init k (fun fold ->
      let test = List.filter_map (fun (f, i) -> if f = fold then Some i else None) tagged in
      let train = List.filter_map (fun (f, i) -> if f <> fold then Some i else None) tagged in
      ({ d with instances = train }, { d with instances = test }))

(* ------------------------------------------------------------------ *)
(* Serialization (CSV with a header, ARFF-of-the-poor).                *)

let to_csv (d : t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b (String.concat "," (Attributes.names d.mode) ^ ",class\n");
  List.iter
    (fun inst ->
      Array.iter
        (fun f -> Buffer.add_string b (if f > 0.5 then "1," else "0,"))
        inst.features;
      Buffer.add_string b (if inst.label then "FP\n" else "RV\n"))
    d.instances;
  Buffer.contents b

(* Every check names the 1-based line it fails on; blank lines are
   skipped but still counted. *)
let of_csv ~mode (contents : string) : (t, string) result =
  let columns = Attributes.names mode @ [ "class" ] in
  let width = List.length columns in
  let fail line fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt
  in
  let cells row = String.split_on_char ',' (String.trim row) in
  let rec rows acc = function
    | [] -> Ok { mode; instances = List.rev acc }
    | (line, row) :: rest -> (
        let cells = cells row in
        if List.length cells <> width then
          fail line "%d cells, expected %d" (List.length cells) width
        else
          let values = List.filteri (fun i _ -> i < width - 1) cells
          and label = List.nth cells (width - 1) in
          match List.find_index (fun v -> v <> "0" && v <> "1") values with
          | Some i ->
              fail line "column %d (%s) is %S, expected 0 or 1" (i + 1)
                (List.nth columns i) (List.nth values i)
          | None -> (
              let features =
                Array.of_list (List.map (fun v -> if v = "1" then 1.0 else 0.0) values)
              in
              match label with
              | "FP" -> rows ({ features; label = true } :: acc) rest
              | "RV" -> rows ({ features; label = false } :: acc) rest
              | l -> fail line "class is %S, expected FP or RV" l))
  in
  let lines =
    String.split_on_char '\n' contents
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  match lines with
  | [] -> fail 1 "no header row"
  | (line, header) :: body -> (
      let header = cells header in
      if List.length header <> width then
        fail line
          "header has %d columns, expected %d (the attribute names, then class)"
          (List.length header) width
      else
        match
          List.find_opt (fun (h, c) -> h <> c) (List.combine header columns)
        with
        | Some (h, c) -> fail line "header column %S, expected %S" h c
        | None when body = [] -> fail line "no instance rows after the header"
        | None -> rows [] body)

(** WEKA ARFF export — the format the paper's data-mining step consumed. *)
let to_arff ?(relation = "wap-false-positive-prediction") (d : t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "@relation %s\n\n" relation);
  List.iter
    (fun name -> Buffer.add_string b (Printf.sprintf "@attribute %s {0,1}\n" name))
    (Attributes.names d.mode);
  Buffer.add_string b "@attribute class {FP,RV}\n\n@data\n";
  List.iter
    (fun inst ->
      Array.iter
        (fun f -> Buffer.add_string b (if f > 0.5 then "1," else "0,"))
        inst.features;
      Buffer.add_string b (if inst.label then "FP\n" else "RV\n"))
    d.instances;
  Buffer.contents b
