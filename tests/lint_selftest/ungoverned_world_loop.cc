// maybms-lint-fixture: src/worlds/fixture_world_set.cc
// Known-bad fixture: per-world loops with no governance. A range-for
// over a worlds collection, an endless loop that advances an odometer
// over a product of components, or an index loop that decodes a product
// ordinal, must poll the statement budget — in the
// body, or directly above it (the poll-before-mutate idiom for loops a
// mid-loop abort would tear) — or be routed through ParallelFor. The
// fixture pretends to live in src/worlds/, where the rule applies, and
// includes the governed shapes to prove they are NOT flagged.

namespace maybms::worlds {

struct World {
  double probability;
};

struct Product {
  unsigned long size() const { return 4; }
  template <typename Visit>
  void Decode(unsigned long i, Visit visit) const {
    visit(0, static_cast<int>(i));
  }
  double Chosen(unsigned long) const { return 0; }
  double Merged(unsigned long) const { return 0; }
};

struct Fixture {
  int worlds_[4];

  void Violations(int (&worlds)[4], World (&set)[4]) {
    int sum = 0;
    for (int w : worlds) sum += w;  // expect-lint: ungoverned-world-loop

    for (int w : worlds_) {  // expect-lint: ungoverned-world-loop
      sum += w;
    }

    // The loop variable being a World is enough, whatever the range is
    // called.
    for (World& w : set) {  // expect-lint: ungoverned-world-loop
      w.probability = 0;
    }

    // A loop over a non-worlds range is out of scope however large it
    // is: the rule targets per-world fan-out, not iteration in general.
    int items[4] = {0, 1, 2, 3};
    for (int i : items) sum += i;

    (void)sum;
  }

  // One pass per combination of the parts' alternatives.
  void UngovernedOdometer(int (&sizes)[4]) {
    int pick[4] = {0, 0, 0, 0};
    int combinations = 0;
    while (true) {  // expect-lint: ungoverned-world-loop
      ++combinations;
      int i = 0;
      for (; i < 4; ++i) {
        if (++pick[i] < sizes[i]) break;
        pick[i] = 0;
      }
      if (i == 4) break;
    }
    (void)combinations;
  }

  // One pass per ordinal of a product (worlds::Product).
  void UngovernedOrdinals(const Product& product) {
    double total = 0;
    for (unsigned long i = 0; i < product.size(); ++i) {  // expect-lint: ungoverned-world-loop
      product.Decode(i, [&total](int, int d) { total += d; });
    }
    for (unsigned long i = 0; i < product.size(); ++i)  // expect-lint: ungoverned-world-loop
      total += product.Merged(i);
    // An index loop that decodes no ordinal is out of scope.
    for (unsigned long i = 0; i < product.size(); ++i) total += 1;
    (void)total;
  }

  void GovernedOdometer(int (&sizes)[4]) {
    int pick[4] = {0, 0, 0, 0};
    while (true) {
      GovernPoll();
      int i = 0;
      for (; i < 4; ++i) {
        if (++pick[i] < sizes[i]) break;
        pick[i] = 0;
      }
      if (i == 4) break;
    }
  }

  // A poll inside a preceding block — or the preceding function, just
  // above — does not govern the loop after it.
  void PollInPrecedingBlock(int (&worlds)[4]) {
    int sum = 0;
    if (sum == 0) {
      GovernPoll();
    }
    for (int w : worlds) sum += w;  // expect-lint: ungoverned-world-loop
    (void)sum;
  }

  void GovernedOrdinals(const Product& product) {
    double total = 0;
    for (unsigned long i = 0; i < product.size(); ++i) {
      GovernChargeWorlds(1);
      total += product.Chosen(i);
    }
    (void)total;
  }

  // An endless loop that advances no odometer is out of scope.
  static int Digits(int n) {
    int digits = 0;
    while (true) {
      ++digits;
      if (n < 10) break;
      n /= 10;
    }
    return digits;
  }

  void GovernedShapes(int (&worlds)[4]) {
    int sum = 0;
    // Governed in the body: the canonical shape.
    for (int w : worlds) {
      GovernPoll();
      sum += w;
    }

    // Poll-before-mutate: one poll directly above a loop whose
    // iterations must be all-or-nothing.
    GovernPoll();
    for (int w : worlds) sum += w;

    // Charging counts as governance too.
    for (int w : worlds) {
      GovernChargeWorlds(1);
      sum += w;
    }

    (void)sum;
  }

  void Sanctioned(World (&set)[4]) {
    // O(1)-per-world arithmetic whose atomicity a mid-loop abort would
    // break: the justified-allow() escape hatch.
    // maybms-lint: allow(ungoverned-world-loop)
    for (World& w : set) w.probability /= 2;
  }

  static void GovernPoll() {}
  static void GovernChargeWorlds(int) {}
};

}  // namespace maybms::worlds
