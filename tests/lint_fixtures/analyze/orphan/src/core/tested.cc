#include "core/tested.h"

namespace hetesim {
int Tested() { return 2; }
}  // namespace hetesim
