(** Reproduction of every table and figure of the paper's evaluation.

    Each [tableN]/[figN] function returns the rendered report; the
    [*_data] functions expose the underlying numbers for tests and
    benchmarks.  EXPERIMENTS.md records paper-vs-measured values. *)

val default_seed : int

(** The paper's top-3 classifiers: SVM, Logistic Regression, Random
    Forest. *)
val top3 : Wap_mining.Classifier.algorithm list

(** Table I: the symptom/attribute catalog. *)
val table1 : unit -> string

type model_eval = {
  me_name : string;
  me_confusion : Wap_mining.Metrics.confusion;
}

(** 10-fold CV of the top-3 classifiers on the WAPe data set (or the
    supplied one). *)
val evaluate_models :
  ?seed:int -> ?dataset:Wap_mining.Dataset.t -> unit -> model_eval list

(** Table II: the nine metrics per classifier of {!evaluate_models}'
    result on [dataset]. *)
val table2 : dataset:Wap_mining.Dataset.t -> model_eval list -> string

(** Table III: confusion matrices. *)
val table3 : model_eval list -> string

(** The wider model-selection ranking behind the top-3 choice.  The
    classifiers in the given evaluations are not cross-validated again;
    the rest of the pool is, on [dataset] (the WAPe data set). *)
val classifier_ranking :
  ?seed:int -> dataset:Wap_mining.Dataset.t -> model_eval list -> string

(** Ablation: 16 vs 61 attributes on the same instances.  The
    61-attribute row is SVM on [dataset] (the WAPe data set), taken
    from the given evaluations when they hold it. *)
val ablation_attributes :
  ?seed:int -> dataset:Wap_mining.Dataset.t -> model_eval list -> string

(** Ablation: interprocedural summaries on/off (DESIGN.md §6). *)
val ablation_interprocedural : ?seed:int -> unit -> string

(** Ablation: single classifier vs the top-3 majority vote. *)
val ablation_vote : ?seed:int -> unit -> string

(** Table IV: sinks added to the sub-modules for SF, CS, LDAPI, XPathI. *)
val table4 : unit -> string

type app_run = {
  ar_profile : Wap_corpus.Profiles.app_profile;
  ar_result : Tool.package_result;
  ar_score : Aggregate.score;
}

(** Dynamic confirmation totals (see {!Wap_confirm}). *)
type confirmation = {
  cf_reported_confirmed : int;  (** reported vulns whose exploit replays *)
  cf_reported_refuted : int;  (** reported but the payload never lands *)
  cf_reported_unsupported : int;  (** not replayable (e.g. stored XSS) *)
  cf_fps_confirmed : int;  (** predicted FPs that are in fact exploitable *)
  cf_fps_refuted : int;
  cf_fps_unsupported : int;
}

type webapp_runs = {
  wr_wape : app_run list;  (** all packages under WAPe *)
  wr_v21 : app_run list;  (** the same packages under WAP v2.1 *)
  wr_confirmed : confirmation list;
      (** one per replayed package, in package order *)
}

(** Run the web-application corpus under both tool versions.  Each
    package is scanned once, by WAPe; its WAP v2.1 run is that scan
    restricted to v2.1's classes ({!Tool.restrict}), which equals a
    v2.1 scan.  [only_vulnerable] restricts to the 17 Table V rows.
    The findings of the first [confirm] packages (default 0; the
    corpus lists the vulnerable ones first) are replayed with attack
    payloads on the ASTs their scan analyzed, before the next package
    is scanned — the mechanized version of the paper's "all were
    confirmed by us manually".  [jobs] and [cache] are forwarded to
    the scan engine for every package. *)
val run_webapps :
  ?seed:int ->
  ?only_vulnerable:bool ->
  ?confirm:int ->
  ?jobs:int ->
  ?cache:Wap_engine.Cache.t ->
  unit ->
  webapp_runs

(** Table V: files / LoC / time / vulnerable files / vulns per package. *)
val table5 : webapp_runs -> string

(** Table VI: per-class detections and FPP/FP, WAP v2.1 vs WAPe. *)
val table6 : webapp_runs -> string

type plugin_run = {
  pr_profile : Wap_corpus.Profiles.plugin_profile;
  pr_result : Tool.package_result;
  pr_score : Aggregate.score;
}

(** Run the plugin corpus under WAPe armed with the [-wpsqli] weapon.
    [jobs] and [cache] are forwarded to the scan engine. *)
val run_plugins :
  ?seed:int ->
  ?only_vulnerable:bool ->
  ?jobs:int ->
  ?cache:Wap_engine.Cache.t ->
  unit ->
  plugin_run list

(** Table VII: per-class detections and FPP/FP over the plugins. *)
val table7 : plugin_run list -> string

(** Fig. 4: download / active-install histograms, analyzed vs
    vulnerable. *)
val fig4 : plugin_run list -> string

(** Fig. 5: vulnerabilities by class, web applications vs plugins. *)
val fig5 : webapp_runs -> plugin_run list -> string

(** The dynamic confirmation table: the sum of the runs'
    [wr_confirmed]. *)
val confirmation_table : webapp_runs -> string

(** The §V-A extensibility experiment: (reports before, reports after)
    feeding the application's own [escape] sanitizer to the tool. *)
val escape_experiment : ?seed:int -> unit -> int * int
