#include "core/tested.h"

int main() { return hetesim::Tested() == 2 ? 0 : 1; }
