#include "checks.hpp"

#include <algorithm>
#include <set>

#include "election/outcomes.hpp"

namespace perfbench::checks {

namespace {

std::string u(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::vector<std::string> owned_grant(const std::string& key,
                                     std::uint64_t releases, bool won,
                                     std::uint64_t epoch) {
  if (!won) return {"acquire on owned key " + key + " lost"};
  if (epoch != releases) {
    return {"key " + key + " released " + u(releases) +
            " times was granted at epoch " + u(epoch)};
  }
  return {};
}

std::vector<std::string> fenced_release(const std::string& key,
                                        std::uint64_t epoch, bool ok) {
  if (ok) return {};
  return {"fenced release of " + key + " at epoch " + u(epoch) +
          " was refused"};
}

std::vector<std::string> handoff(std::vector<grant> grants) {
  std::vector<std::string> out;
  std::sort(grants.begin(), grants.end(), [](const grant& a, const grant& b) {
    return a.acquired_ns < b.acquired_ns ||
           (a.acquired_ns == b.acquired_ns && a.epoch < b.epoch);
  });
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < grants.size(); ++i) {
    const grant& g = grants[i];
    if (!seen.insert(g.epoch).second) {
      out.push_back("epoch " + u(g.epoch) + " granted twice");
    }
    if (i == 0) continue;
    const grant& prev = grants[i - 1];
    if (g.epoch <= prev.epoch) {
      out.push_back("epoch " + u(g.epoch) + " (holder " +
                    std::to_string(g.holder) + ") returned after epoch " +
                    u(prev.epoch));
    }
    if (g.acquired_ns <= prev.release_start_ns) {
      out.push_back("epoch " + u(g.epoch) + " (holder " +
                    std::to_string(g.holder) +
                    ") returned before holder " + std::to_string(prev.holder) +
                    " began releasing epoch " + u(prev.epoch));
    }
  }
  return out;
}

std::vector<std::string> leader_elect_trial(
    const std::vector<std::int64_t>& outcomes, int crashed) {
  const auto win = static_cast<std::int64_t>(elect::election::tas_result::win);
  const auto winners = std::count(outcomes.begin(), outcomes.end(), win);
  if (winners > 1) return {std::to_string(winners) + " participants won"};
  if (crashed == 0 && winners != 1) {
    return {"no participant crashed but " + std::to_string(winners) +
            " won"};
  }
  return {};
}

std::vector<std::string> renaming_trial(
    const std::vector<std::int64_t>& outcomes, int n, int crashed) {
  std::vector<std::string> out;
  std::set<std::int64_t> names;
  int named = 0;
  for (const std::int64_t name : outcomes) {
    if (name == -1) continue;  // crashed participant
    ++named;
    if (name < 0 || name >= n) {
      out.push_back("name " + std::to_string(name) + " outside 0.." +
                    std::to_string(n - 1));
    }
    if (!names.insert(name).second) {
      out.push_back("name " + std::to_string(name) + " taken twice");
    }
  }
  if (crashed == 0 && (named != n || static_cast<int>(names.size()) != n)) {
    out.push_back("no participant crashed but " +
                  std::to_string(names.size()) + " distinct names for " +
                  std::to_string(n) + " participants");
  }
  return out;
}

std::vector<std::string> member_key(int member, const std::string& key,
                                    std::uint64_t want_epoch,
                                    std::uint64_t epoch, int leader) {
  std::vector<std::string> out;
  if (epoch != want_epoch) {
    out.push_back("member " + std::to_string(member) + " has " + key +
                  " at epoch " + u(epoch) + ", want " + u(want_epoch));
  }
  if (leader != -1) {
    out.push_back("member " + std::to_string(member) + " shows " + key +
                  " held by session " + std::to_string(leader));
  }
  return out;
}

std::vector<std::string> stable_primary(
    int primary_before, int primary_after, std::uint64_t term_before,
    const std::vector<std::uint64_t>& terms_after) {
  std::vector<std::string> out;
  if (primary_before < 0 || primary_after != primary_before) {
    out.push_back("primary moved from member " +
                  std::to_string(primary_before) + " to " +
                  std::to_string(primary_after));
  }
  for (std::size_t m = 0; m < terms_after.size(); ++m) {
    if (terms_after[m] != term_before) {
      out.push_back("member " + std::to_string(m) + " is in term " +
                    u(terms_after[m]) + ", run began in term " +
                    u(term_before));
    }
  }
  return out;
}

std::vector<std::string> replay(std::uint64_t seed, std::uint64_t first_hash,
                                std::uint64_t rerun_hash) {
  if (first_hash == rerun_hash) return {};
  return {"trial seed " + u(seed) + " hashed " + u(first_hash) +
          " then " + u(rerun_hash)};
}

// ---------------------------------------------------------------------
// Self-test.

std::vector<std::string> self_test(std::vector<std::string>* log) {
  std::vector<std::string> failures;
  const auto expect = [&](const char* name, bool want_violation,
                          const std::vector<std::string>& got) {
    const bool convicted = !got.empty();
    if (log != nullptr) {
      log->push_back(std::string(name) + ": " +
                     (convicted ? "convicted (" + got.front() + ")"
                                : "clean"));
    }
    if (convicted != want_violation) {
      failures.push_back(std::string(name) +
                         (want_violation ? ": planted fault not convicted"
                                         : ": clean input convicted"));
    }
  };
  const auto win = static_cast<std::int64_t>(elect::election::tas_result::win);
  const auto lose =
      static_cast<std::int64_t>(elect::election::tas_result::lose);

  expect("owned grant at the predicted epoch", false,
         owned_grant("k", 3, true, 3));
  expect("off-by-one epoch", true, owned_grant("k", 3, true, 4));
  expect("acquire on an owned key lost", true, owned_grant("k", 3, false, 3));
  expect("fenced release ok", false, fenced_release("k", 3, true));
  expect("fenced release refused", true, fenced_release("k", 3, false));

  // Holder a: epoch 7 granted at t=10, releases over [20, 25]; holder b
  // is granted epoch 8 at t=30.
  const std::vector<grant> clean = {{0, 7, 10, 20, 25}, {1, 8, 30, 40, 45},
                                    {2, 9, 50, 60, 62}};
  expect("clean handoff", false, handoff(clean));
  std::vector<grant> twice = clean;
  twice[2].epoch = 8;
  expect("two grants of one (key, epoch)", true, handoff(twice));
  std::vector<grant> overlap = clean;
  overlap[1].acquired_ns = 15;  // before holder 0 began releasing at 20
  expect("overlapping holders", true, handoff(overlap));
  std::vector<grant> backwards = clean;
  std::swap(backwards[1].epoch, backwards[2].epoch);
  expect("epochs falling in grant order", true, handoff(backwards));

  expect("one winner", false, leader_elect_trial({lose, win, lose}, 0));
  expect("two winners", true, leader_elect_trial({win, win, lose}, 0));
  expect("no winner without a crash", true,
         leader_elect_trial({lose, lose, lose}, 0));
  expect("no winner after a crash", false,
         leader_elect_trial({-1, lose, lose}, 1));

  expect("renaming permutation", false, renaming_trial({2, 0, 1}, 3, 0));
  expect("duplicate name", true, renaming_trial({2, 0, 2}, 3, 0));
  expect("name out of range", true, renaming_trial({3, 0, 1}, 3, 0));
  expect("renaming with a crash", false, renaming_trial({-1, 0, 2}, 3, 1));
  expect("duplicate name after a crash", true,
         renaming_trial({-1, 2, 2}, 3, 1));

  expect("member at the predicted epoch", false, member_key(1, "k", 5, 5, -1));
  expect("member with a different epoch", true, member_key(1, "k", 5, 4, -1));
  expect("member still showing a holder", true, member_key(1, "k", 5, 5, 3));

  expect("stable primary", false, stable_primary(0, 0, 1, {1, 1, 1}));
  expect("primary moved", true, stable_primary(0, 2, 1, {2, 2, 2}));
  expect("term moved", true, stable_primary(0, 0, 1, {1, 2, 1}));

  expect("replay matches", false, replay(9, 42, 42));
  expect("replay diverges", true, replay(9, 42, 43));
  return failures;
}

}  // namespace perfbench::checks
