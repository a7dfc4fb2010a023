// Fixture: unordered iteration feeding the scheduler + pointer-keyed maps
// (std::map and sim::FlatMap) + a static data member.
#pragma once
#include <map>
#include <unordered_map>

namespace ppsim::sim {

struct Ev {
  int id = 0;
};

class Sched {
 public:
  void schedule(int id);
  void run() {
    for (const auto& [id, ev] : pending_) {  // determinism: unordered-iter
      schedule(id);
      (void)ev;
    }
  }

  static int live_instances;  // shared-state: static-member

 private:
  std::unordered_map<int, Ev> pending_;
  std::map<Ev*, int> by_addr_;  // determinism: pointer-key
  sim::FlatMap<Ev*, int> flat_by_addr_;  // determinism: pointer-key
};

}  // namespace ppsim::sim
