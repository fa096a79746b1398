// Included by its own .cc and by tools/app.cc: a binary uses it.
namespace hetesim {
int Used();
}  // namespace hetesim
