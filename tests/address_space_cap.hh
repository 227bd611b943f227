/**
 * @file
 * Run a test body under an address-space cap, shared by the test
 * binaries that fuzz decoders of untrusted bytes (snapshots, sweep
 * journals): a decoder that allocated from a corrupt length would
 * then fail with bad_alloc on every host, instead of succeeding on a
 * large one or summoning the OOM killer on a small one.
 */

#ifndef S64V_TESTS_ADDRESS_SPACE_CAP_HH
#define S64V_TESTS_ADDRESS_SPACE_CAP_HH

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define S64V_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define S64V_SANITIZED_BUILD 1
#endif
#endif

namespace s64v::testutil
{

/**
 * Run @p body in a forked child whose address space is capped a little
 * above the parent's (256 MiB of headroom). The child exits 0 only if
 * @p body recorded no failure and threw nothing. Sanitizer runtimes
 * reserve terabytes of address space up front, so there the body runs
 * in-process, unbounded.
 */
inline void
runUnderAddressSpaceCap(const std::function<void()> &body)
{
#ifdef S64V_SANITIZED_BUILD
    body();
#else
    std::size_t vm_pages = 0;
    std::ifstream("/proc/self/statm") >> vm_pages;
    ASSERT_GT(vm_pages, 0u) << "cannot read the process size";
    const rlim_t cap =
        static_cast<rlim_t>(vm_pages) *
            static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
        (256ull << 20);

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        int code = 0;
        rlimit lim{};
        if (getrlimit(RLIMIT_AS, &lim) != 0) {
            code = 3;
        } else {
            lim.rlim_cur = std::min(lim.rlim_cur, cap);
            if (setrlimit(RLIMIT_AS, &lim) != 0)
                code = 3;
        }
        if (code == 0) {
            try {
                body();
                code = ::testing::Test::HasFailure() ? 1 : 0;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "escaped: %s\n", e.what());
                code = 2;
            }
        }
        std::fflush(stdout);
        std::fflush(stderr);
        std::_Exit(code);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "child killed by signal " << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: an expectation failed, 2: an exception escaped, "
           "3: the address-space cap could not be set";
#endif
}

} // namespace s64v::testutil

#endif // S64V_TESTS_ADDRESS_SPACE_CAP_HH
