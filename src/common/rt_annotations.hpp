#pragma once

/// Static real-time-safety annotations for the per-sample audio path.
///
/// The runtime contract layer (contracts.hpp: RtAllocationGuard,
/// MUTE_RT_SCOPE) can only prove the RT property on the paths the tests
/// happen to exercise. These annotations make the same contract a *static*,
/// whole-call-graph property: `tools/rt_lint.py` walks every function
/// reachable from the annotated roots and fails CI when anything on that
/// surface can allocate, lock, throw, block on I/O, or call a banned API
/// (operator new, malloc, std::mutex, iostream, std::rotate, push_back /
/// resize on hot containers — the full deny-list lives in the linter).
///
/// Vocabulary (DESIGN.md §11):
///
///   MUTE_RT_SAFE
///     Declares a function part of the per-sample real-time surface. It is
///     a *root* for the linter's call-graph walk: its body and everything
///     it (transitively) calls must be free of banned constructs. Apply it
///     to the per-sample entry points — ticks, pushes, process()/step()
///     sample ops — not to every leaf they reach (reachability covers the
///     leaves automatically).
///
///   MUTE_RT_UNSAFE
///     Declares a function explicitly NOT real-time-safe (control-plane:
///     it may allocate, lock, or throw by design). Calling it from any
///     function on the RT surface is always a violation, even if its body
///     happens to look clean today. Use it to fence off control-plane APIs
///     that live next to hot ones in the same class (reset(), retarget(),
///     assign()).
///
///   MUTE_RT_ESCAPE(reason)
///     Escape hatch: the function is reachable from the RT surface but is
///     deliberately exempt from the walk. The mandatory reason string is
///     surfaced in the linter's report. Legitimate uses are (a) failure
///     paths that only run when the process is already aborting
///     (contract_failure), (b) amortized control-plane work the design
///     knowingly runs on the audio thread (profiling hops, periodic
///     selection rounds), each of which must say so. An escape without a
///     convincing reason is a review failure, not a linter pass.
///
/// The macros expand to nothing: the linter recognizes the macro tokens
/// directly in the source text, so do not alias or wrap them (the scanner
/// matches the literal names).
///
/// Placement: attribute position, before the declaration's return type —
///
///   MUTE_RT_SAFE Sample process(Sample x);
///   MUTE_RT_ESCAPE("profiling hop; amortized control plane")
///   void run_profiler(Sample x);
///
/// Annotate the declaration in the header; the linter unifies it with the
/// out-of-line definition by qualified name.

#define MUTE_RT_SAFE
#define MUTE_RT_UNSAFE
#define MUTE_RT_ESCAPE(reason)
