(** Exporters for the typed kernel-path trace (see {!Simcore.Tracer}).

    [to_chrome_string] renders the Chrome [trace_event] JSON format — load the
    file in Perfetto (ui.perfetto.dev) or [chrome://tracing].  Hosts
    become processes, subsystems become threads, span begin/end pairs
    become async nestable events, charges become complete events with a
    duration, and counters become counter tracks.

    [counter_summary] renders the per-run counters (faults, copies,
    copied bytes, COW breaks, wires, deferred deallocations, ...) as an
    ASCII table. *)

val to_chrome_string : ?indent:int -> Simcore.Tracer.t -> string

val counter_summary : Simcore.Tracer.t -> string
(** One row per (host, counter); empty-table header only when no counter
    was ever bumped. *)
