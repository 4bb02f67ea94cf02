(** Building the predictor's training data set.

    The paper created its data set by running WAP in
    candidate-outputting mode over 29 open-source applications and
    labelling every candidate by hand; here the corpus generator plays
    the role of those applications, and labels come from the generation
    ground truth.  The rest of the procedure is the paper's: collect
    symptoms with the real collector, de-duplicate, drop ambiguous
    instances, balance the classes. *)

module VC = Wap_catalog.Vuln_class
module Cat = Wap_catalog.Catalog

(** Candidate flows of one labelled training program, found by the real
    detector. *)
let candidates_of_program (tp : Wap_corpus.Corpus.training_program) :
    Wap_taint.Trace.candidate list =
  let spec = Cat.default_spec tp.Wap_corpus.Corpus.tp_class in
  let program =
    Wap_php.Parser.parse_string ~file:"<train>" tp.Wap_corpus.Corpus.tp_source
  in
  Wap_taint.Analyzer.analyze_program ~spec ~file:"<train>" program

(** Labelled evidence pairs for a version's class list. *)
let evidence_pairs ?(legacy = false) ~seed ~(classes : VC.t list) ~per_label () :
    (Wap_mining.Evidence.t * bool) list =
  let programs = Wap_corpus.Corpus.training_programs ~seed ~legacy ~per_label () in
  List.concat_map
    (fun (tp : Wap_corpus.Corpus.training_program) ->
      if not (List.mem tp.Wap_corpus.Corpus.tp_class classes) then []
      else
        candidates_of_program tp
        |> List.map (fun c ->
               (Wap_mining.Evidence.collect c, tp.Wap_corpus.Corpus.tp_is_fp)))
    programs

(** Build the training data set for a tool version: [target] instances,
    balanced, de-duplicated, deterministic in [seed]. *)
let build_dataset ?(seed = Frozen_models.seed) ?split ~(mode : Wap_mining.Attributes.mode)
    ~(classes : VC.t list) ~target () : Wap_mining.Dataset.t =
  (* over-generate: de-duplication discards most raw instances; the
     Original attribute encoding only ever sees legacy-era snippets, as
     the paper's 76-instance set predates the new symptoms *)
  let legacy = mode = Wap_mining.Attributes.Original in
  (* the coarse 15-attribute encoding yields few distinct vectors, so the
     legacy set needs a much larger raw pool to fill its 76 instances *)
  let per_label = max 128 (target * if legacy then 16 else 8) in
  let pairs = evidence_pairs ~legacy ~seed ~classes ~per_label () in
  let deduped =
    Wap_mining.Dataset.of_evidence ~mode pairs |> Wap_mining.Dataset.deduplicate
  in
  let selected =
    match split with
    | Some (fp, rv) -> Wap_mining.Dataset.take_split ~fp ~rv deduped
    | None -> Wap_mining.Dataset.balance ~n:target deduped
  in
  Wap_mining.Dataset.shuffle ~seed selected

let frozen_seed = Frozen_models.seed

(** The data set of a tool version: 256 balanced instances for WAPe;
    for WAP v2.1 the paper's unbalanced 76-instance split (32 false
    positives, 44 real vulnerabilities). *)
let generate ~seed (v : Version.t) : Wap_mining.Dataset.t =
  let split = match v with Version.Wap_v21 -> Some (32, 44) | Version.Wape -> None in
  build_dataset ~seed ?split ~mode:(Version.attribute_mode v)
    ~classes:(Version.classes v)
    ~target:(Version.training_instances v) ()

(* At the frozen seed, parse the checked-in CSV (about a millisecond)
   instead of generating, parsing and analyzing thousands of training
   programs (a quarter of a second). *)
let dataset_for ?(seed = frozen_seed) (v : Version.t) : Wap_mining.Dataset.t =
  if seed <> frozen_seed then generate ~seed v
  else
    match
      Wap_mining.Dataset.of_csv ~mode:(Version.attribute_mode v)
        (match v with
        | Version.Wape -> Frozen_sets.wape
        | Version.Wap_v21 -> Frozen_sets.v21)
    with
    | Ok d -> d
    | Error e -> failwith ("frozen training set of " ^ Version.name v ^ ": " ^ e)

(* Trained when the library was built, on the set above. *)
let frozen_models (v : Version.t) : Wap_mining.Classifier.model list =
  match v with Version.Wape -> Frozen_models.wape | Version.Wap_v21 -> Frozen_models.v21
