#include "core/used.h"

namespace hetesim {
int Used() { return 1; }
}  // namespace hetesim
