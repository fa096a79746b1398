#include "core/used.h"

int main() { return hetesim::Used(); }
