(** A parsed National Hurricane Center public advisory (Sec. 4.4).

    Each advisory carries the storm centre and the radii of
    hurricane-force and tropical-storm-force winds — the two data points
    the paper extracts by natural-language parsing. *)

type t = {
  storm : string;                    (** e.g. ["IRENE"] *)
  number : int;                      (** advisory number *)
  issued : string;                   (** e.g. ["1100 AM EDT SAT AUG 27 2011"] *)
  center : Rr_geo.Coord.t;
  hurricane_radius_miles : float;    (** 0 when no hurricane-force winds *)
  tropical_radius_miles : float;     (** 0 when no tropical-storm-force winds *)
}

val make :
  storm:string -> number:int -> issued:string -> center:Rr_geo.Coord.t ->
  hurricane_radius_miles:float -> tropical_radius_miles:float -> t
(** Validates radii: finite, non-negative, hurricane radius not
    exceeding the tropical radius when both are positive. Raises
    [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
