// Fixture: pointer-keyed ordered containers.  Expect exactly two
// PTR_KEY_ORDER findings (the map and the set); the id-keyed map and
// the suppressed multimap must not fire.
#include <map>
#include <set>
#include <cstdint>

struct Node {
  int id = 0;
};

struct Registry {
  std::map<Node*, int> by_addr;           // BAD: address order
  std::set<const Node*> live;             // BAD: address order
  std::map<std::uint64_t, Node> by_id;    // fine: stable-id key
  // sda-lint: allow(PTR_KEY_ORDER) fixture: suppressed with a reason
  std::multimap<Node*, int> suppressed;
};

int ptr_key_fixture() {
  Registry r;
  return static_cast<int>(r.by_id.size());
}
