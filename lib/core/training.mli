(** Building the predictor's training data set.

    The paper created its data set by running WAP in
    candidate-outputting mode over 29 open-source applications and
    labelling every candidate by hand; here the corpus generator plays
    the role of those applications, and labels come from the generation
    ground truth.  The rest of the procedure is the paper's: collect
    symptoms with the real collector, de-duplicate, drop ambiguous
    instances, balance the classes. *)

(** Candidate flows of one labelled training program, found by the real
    detector for the program's class. *)
val candidates_of_program :
  Wap_corpus.Corpus.training_program -> Wap_taint.Trace.candidate list

(** Labelled (evidence, is-false-positive) pairs, restricted to
    [classes]. *)
val evidence_pairs :
  ?legacy:bool ->
  seed:int ->
  classes:Wap_catalog.Vuln_class.t list ->
  per_label:int ->
  unit ->
  (Wap_mining.Evidence.t * bool) list

(** Build a training data set: [target] instances (balanced, or split
    as [fp, rv] when [split] is given), de-duplicated, deterministic in
    [seed].  The [Original] attribute mode automatically restricts the
    generator to legacy-era snippets. *)
val build_dataset :
  ?seed:int ->
  ?split:int * int ->
  mode:Wap_mining.Attributes.mode ->
  classes:Wap_catalog.Vuln_class.t list ->
  target:int ->
  unit ->
  Wap_mining.Dataset.t

(** The seed whose data sets and ensembles ship frozen with the library:
    the default of {!dataset_for}, {!Tool.create} and every [wap]
    subcommand. *)
val frozen_seed : int

(** Generate the data set of a tool version: 256 balanced instances for
    WAPe; for WAP v2.1 the paper's unbalanced split (32 false positives,
    44 real vulnerabilities, as available).  This generates, parses and
    taint-analyzes thousands of training programs. *)
val generate : seed:int -> Version.t -> Wap_mining.Dataset.t

(** [generate ~seed v], the "trained data sets" input of Fig. 1.  At
    {!frozen_seed} it is parsed from the CSV checked in under
    [lib/core/frozen_sets/] (the format [wap train --out] writes), so no
    process pays for generating it; [dune runtest] fails when that CSV
    and [generate] disagree, and [dune promote] refreshes it.  Other
    seeds generate. *)
val dataset_for : ?seed:int -> Version.t -> Wap_mining.Dataset.t

(** The ensemble {!Wap_mining.Predictor.train}[ ~seed:frozen_seed] would
    train on [dataset_for v], bit for bit, in the order of
    {!Version.predictor_config}[ v]: trained when the library is built
    (the generated [Frozen_models], from the checked-in CSVs), so no
    process trains it. *)
val frozen_models : Version.t -> Wap_mining.Classifier.model list
