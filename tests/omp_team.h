#ifndef SES_TESTS_OMP_TEAM_H_
#define SES_TESTS_OMP_TEAM_H_

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ses::test {

/// Runs the enclosing scope's OpenMP regions on a team of `n` threads and
/// restores the previous team size on exit. ctest runs every test with
/// OMP_NUM_THREADS=1 (tests/CMakeLists.txt); a test whose contract covers
/// the multi-thread path (parity, determinism, races) pins its own team.
/// It sets the calling thread's team only: a test whose teams open on
/// threads it does not start gets its team from ctest's environment instead
/// (SES_OMP_TEAM_TESTS_* in tests/CMakeLists.txt). A no-op when built
/// without OpenMP.
class ScopedOmpTeam {
 public:
  explicit ScopedOmpTeam(int n) {
#ifdef _OPENMP
    previous_ = omp_get_max_threads();
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
  ~ScopedOmpTeam() {
#ifdef _OPENMP
    omp_set_num_threads(previous_);
#endif
  }
  ScopedOmpTeam(const ScopedOmpTeam&) = delete;
  ScopedOmpTeam& operator=(const ScopedOmpTeam&) = delete;

 private:
  int previous_ = 1;
};

}  // namespace ses::test

#endif  // SES_TESTS_OMP_TEAM_H_
