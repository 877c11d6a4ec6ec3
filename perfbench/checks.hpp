// Output checks. Each is a property the method must have, computed from
// what the benchmark observed — never a comparison with a recorded
// output. Every function returns the violations it found (empty = the
// property holds), so the self-test can feed them planted faults.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench::checks {

/// A pipelined pair on a key the connection owns alone: the acquire
/// must win, at exactly the epoch the key's release count predicts (a
/// key released m times is next granted at epoch m).
[[nodiscard]] std::vector<std::string> owned_grant(const std::string& key,
                                                   std::uint64_t releases,
                                                   bool won,
                                                   std::uint64_t epoch);

/// A fenced release by the holder must return ok.
[[nodiscard]] std::vector<std::string> fenced_release(const std::string& key,
                                                      std::uint64_t epoch,
                                                      bool ok);

/// One grant on a contended key, as the winner saw it.
struct grant {
  int holder = 0;
  std::uint64_t epoch = 0;
  std::uint64_t acquired_ns = 0;       ///< acquire returned won
  std::uint64_t release_start_ns = 0;  ///< release call began
  std::uint64_t release_ack_ns = 0;    ///< release returned
};

/// Contended handoff on one key: no epoch granted twice; epochs rise in
/// the order grants returned; each grant returns after the previous
/// holder's release call began (no two holders overlap).
[[nodiscard]] std::vector<std::string> handoff(std::vector<grant> grants);

/// One leader_elect trial's outcomes (-1 = crashed or incomplete): at
/// most one WIN, and exactly one when no participant crashed.
[[nodiscard]] std::vector<std::string> leader_elect_trial(
    const std::vector<std::int64_t>& outcomes, int crashed);

/// One renaming trial over `n` processors: the names of the participants
/// that did not crash are distinct and in 0..n-1, and a permutation of
/// 0..n-1 when none crashed.
[[nodiscard]] std::vector<std::string> renaming_trial(
    const std::vector<std::int64_t>& outcomes, int n, int crashed);

/// A cluster member's registry view of a drained key: the predicted
/// epoch and no holder.
[[nodiscard]] std::vector<std::string> member_key(int member,
                                                  const std::string& key,
                                                  std::uint64_t want_epoch,
                                                  std::uint64_t epoch,
                                                  int leader);

/// The cluster kept one primary and one term for the whole run.
[[nodiscard]] std::vector<std::string> stable_primary(
    int primary_before, int primary_after, std::uint64_t term_before,
    const std::vector<std::uint64_t>& terms_after);

/// A rerun of one trial seed reproduces its trace hash.
[[nodiscard]] std::vector<std::string> replay(std::uint64_t seed,
                                              std::uint64_t first_hash,
                                              std::uint64_t rerun_hash);

/// Feed every check a clean input and hand-made wrong ones (two grants
/// of one (key, epoch), overlapping holders, an off-by-one epoch, a
/// duplicate name, a member with a different epoch, ...). Returns one
/// line per planted fault that was NOT convicted or clean input that
/// was; empty means every check works. `log` gets one line per case.
[[nodiscard]] std::vector<std::string> self_test(
    std::vector<std::string>* log = nullptr);

}  // namespace perfbench::checks
