// The binary that uses the headers no other fixture file includes, so the
// orphan-header rule has nothing to report here.
#include "hin/graph.h"
#include "hin/okay.h"
#include "service/svc.h"

int main() { return 0; }
