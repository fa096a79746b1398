// ORPHAN: included by nothing at all.
namespace hetesim {
inline int Dead() { return 3; }
}  // namespace hetesim
