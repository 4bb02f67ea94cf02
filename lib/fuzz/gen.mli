(** Seeded random PHP program generator.

    Grammar-driven over {!Wap_php.Ast}, weighted toward the shapes WAP's
    pipeline cares about: superglobal reads, sensitive sinks, sanitizer
    wraps, interpolated strings, concatenation chains, and up to three
    user functions that bodies and top-level statements call — earlier,
    later or recursively, with tainted and clean arguments.  Generated
    ASTs are {e canonical} — the parser maps their printed form back to
    the same tree modulo locations — which is what lets the
    printer/parser fixpoint oracle compare ASTs structurally. *)

(** Generate a program; same [Rng] state, same program.  [max_stmts]
    bounds the top-level statement count (default 10). *)
val program : ?max_stmts:int -> Rng.t -> Wap_php.Ast.program

(** Append 1–3 raw source fragments that the AST cannot express —
    heredocs, overflowing integer literals, comments, binary literals —
    to a printed program.  Spiced sources are only checked against the
    totality-style oracles. *)
val spice : Rng.t -> string -> string

(** The raw fragment pool used by {!spice}, exposed for tests. *)
val spice_pool : string list
