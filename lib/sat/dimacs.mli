(** DIMACS CNF reader and writer.

    The grammar, over bytes.  Space, tab, CR and LF are whitespace, and LF
    also ends a line.  An integer is an optional sign and decimal digits,
    delimited by whitespace; anything else ([0x2], [1_0], [2a]) is an
    error, as is a value beyond the range of [int].  Line by line, after
    any leading blanks:
    - an empty line, or one starting with [c] (a comment), is skipped;
    - a line starting with [%] ends the data (the SATLIB trailer);
    - a line starting with [p] is the one header, [p cnf <vars> <clauses>]
      with [<vars> >= 0]; the clause count is not checked (archive files
      often get it wrong);
    - any other line, after the header, holds integers: [0] ends a clause,
      any other must lie in [-vars .. vars].  A clause may span lines, and
      a last clause without its [0] is kept.
    The formula keeps the clauses in input order, normalised ({!Cnf}). *)

exception Parse_error of string

val parse_string : string -> Cnf.t
(** Raises {!Parse_error}, and nothing else, on text outside the grammar. *)

val parse_file : string -> Cnf.t

val to_string : Cnf.t -> string

val write_file : string -> Cnf.t -> unit

(** The byte scanner behind every line-structured integer format: DIMACS,
    the subproblem wire format and DRUP text.  It reads the text in place
    with this grammar's whitespace and integers; errors raise the exception
    its [fail] makes of a message.  Clause data is read by one loop per
    reader ({!parse_string}'s, and {!Scan.lits} for a line of the others):
    each integer is decoded and range-checked where it is read and its
    literal written straight into an {!Arena.buf}'s storage, with no call
    per integer or literal. *)
module Scan : sig
  type t

  val create : fail:(string -> exn) -> string -> t

  val error : t -> ('a, unit, string, 'b) format4 -> 'a

  val peek : t -> char
  (** Skips blanks, then the byte at the cursor; ['\n'] at the end. *)

  val more : t -> bool
  (** Skips empty lines: whether any text is left. *)

  val word : t -> string -> bool
  (** Whether the next token is the word; if so, moves past it. *)

  val header : t -> string -> int * int
  (** Reads the line [p <kind> <vars> <clauses>] with [<vars> >= 0], and
      returns [(<vars>, <clauses>)]. *)

  val lits : t -> Arena.buf -> int -> nvars:int -> int
  (** [lits t b e ~nvars] reads the rest of the line, integers in
      [-nvars .. nvars] ended by the line's only [0], and writes their
      literals into [b]'s storage from [e] on ({!Arena.storage}); returns
      their end.  It closes no clause, and leaves the cursor at the end of
      the line. *)
end
