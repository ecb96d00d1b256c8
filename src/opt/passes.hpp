// The built-in passes behind the registry names:
//   cvs     — clustered voltage scaling (core/cvs.hpp)
//   dscale  — MWIS-based voltage scaling with level converters
//   gscale  — separator-based gate sizing growing the CVS cluster
//   trim    — the boundary-trim cleanup as a standalone pass (raises
//             low->high boundary drivers whose converter costs more than
//             their cluster saves)
//   measure — no-op probe that records a power/delay/area trajectory
//             point between other passes
// Passes are configured only through their OptionSchema, so a cell's
// canonical spec is its whole configuration.
#pragma once

namespace dvs {

class PassRegistry;

/// Registers the five built-ins; called once by pass_registry().
void register_builtin_passes(PassRegistry& registry);

}  // namespace dvs
