// ORPHAN: included only by its own .cc and by a test.
namespace hetesim {
int Tested();
}  // namespace hetesim
