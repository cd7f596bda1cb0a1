(** Combinational circuit builder with Tseitin CNF encoding.

    Several SAT2002 families are circuit problems (microprocessor
    verification, factoring, counters).  This module builds gate-level
    circuits and emits equisatisfiable CNF via the Tseitin transformation;
    the family generators below use it as their common substrate. *)

type t

type signal
(** A boolean wire: a variable, its negation, or a constant. *)

val create : unit -> t

val tru : signal

val fls : signal

val input : t -> signal
(** A fresh primary input. *)

val snot : signal -> signal

val sand : t -> signal -> signal -> signal

val sxor : t -> signal -> signal -> signal

val mux : t -> sel:signal -> signal -> signal -> signal
(** [mux ~sel a b] is [a] when [sel] is false, [b] when [sel] is true. *)

val big_or : t -> signal list -> signal

val big_xor : t -> signal list -> signal

val eq : t -> signal -> signal -> signal
(** XNOR. *)

val full_adder : t -> signal -> signal -> signal -> signal * signal
(** [full_adder t a b cin] is [(sum, carry)]. *)

val ripple_add : t -> signal list -> signal list -> signal list
(** LSB-first addition, result has [max len + 1] bits. *)

val multiplier : t -> signal list -> signal list -> signal list
(** LSB-first array multiplier; result has [len a + len b] bits. *)

val assert_sig : t -> signal -> unit
(** Constrains the signal to be true in every model. *)

val assert_equal_const : t -> signal list -> int -> unit
(** Constrains an LSB-first bit vector to a non-negative integer value. *)

val nvars : t -> int

val to_cnf : t -> Sat.Cnf.t
(** The accumulated Tseitin clauses plus assertions. *)
