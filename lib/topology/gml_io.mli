(** GML import/export for networks — the Internet Topology Zoo format.

    Exported documents use the Zoo's conventions ([graph [ node [ id,
    label, Latitude, Longitude ] edge [ source, target ] ]]) so that real
    Zoo maps parse with {!of_gml} and synthetic maps can be inspected with
    standard tools. *)

val to_gml : Net.t -> Rr_gml.Ast.t

val of_gml : Rr_gml.Ast.t -> Net.t
(** Raises [Failure] with a descriptive message on documents missing
    required fields (id, Latitude, Longitude), with a Latitude outside
    [[-90, 90]] or a Longitude outside [[-180, 180]] (non-finite values
    included), or with dangling edge endpoints. Node ids may be sparse
    in the input; they are re-indexed densely. *)

val to_file : string -> Net.t -> unit

val of_file : string -> Net.t
