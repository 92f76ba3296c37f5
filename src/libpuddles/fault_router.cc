#include "src/libpuddles/fault_router.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>

#include "src/common/log.h"
#include "src/pmem/global_space.h"

namespace puddles {
namespace {

uint64_t CurrentTid() { return static_cast<uint64_t>(::syscall(SYS_gettid)); }

inline void CpuRelax() {
#if defined(__x86_64__)
  asm volatile("pause");
#endif
}

}  // namespace

FaultRouter& FaultRouter::Instance() {
  static FaultRouter* router = new FaultRouter();
  return *router;
}

void FaultRouter::Install() {
  if (installed_.exchange(true)) {
    return;
  }
  if (::pipe(wake_pipe_) != 0) {
    PUD_LOG_ERROR("fault router: pipe failed (%d)", errno);
    installed_.store(false);
    return;
  }
  helper_ = std::thread([this] {
    helper_tid_.store(CurrentTid(), std::memory_order_release);
    HelperLoop();
  });
  helper_.detach();  // Process-lifetime service.

  struct sigaction action = {};
  action.sa_sigaction = &FaultRouter::SignalHandler;
  action.sa_flags = SA_SIGINFO;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGSEGV, &action, &old_action_);
}

uint64_t FaultRouter::AddResolver(Resolver resolver) {
  Install();
  std::lock_guard<std::mutex> lock(resolvers_mu_);
  uint64_t id = next_resolver_id_++;
  resolvers_.emplace_back(id, std::move(resolver));
  return id;
}

void FaultRouter::RemoveResolver(uint64_t id) {
  std::lock_guard<std::mutex> lock(resolvers_mu_);
  for (size_t i = 0; i < resolvers_.size(); ++i) {
    if (resolvers_[i].first == id) {
      resolvers_.erase(resolvers_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

FaultRouter::Stats FaultRouter::stats() const {
  Stats stats;
  stats.faults_handled = faults_handled_.load(std::memory_order_relaxed);
  stats.faults_unresolved = faults_unresolved_.load(std::memory_order_relaxed);
  return stats;
}

void FaultRouter::HelperLoop() {
  while (true) {
    char byte;
    ssize_t n = ::read(wake_pipe_[0], &byte, 1);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return;
    }
    uintptr_t addr = mailbox_addr_.load(std::memory_order_acquire);
    bool handled = Dispatch(addr);
    if (handled) {
      faults_handled_.fetch_add(1, std::memory_order_relaxed);
    } else {
      faults_unresolved_.fetch_add(1, std::memory_order_relaxed);
    }
    mailbox_state_.store(handled ? 2 : 3, std::memory_order_release);
  }
}

bool FaultRouter::Dispatch(uintptr_t addr) {
  std::lock_guard<std::mutex> lock(resolvers_mu_);
  for (auto& [id, resolver] : resolvers_) {
    if (resolver(addr)) {
      return true;
    }
  }
  return false;
}

void FaultRouter::SignalHandler(int /*signo*/, siginfo_t* info, void* /*context*/) {
  FaultRouter& router = Instance();
  const uintptr_t addr = reinterpret_cast<uintptr_t>(info->si_addr);

  bool ours = pmem::GlobalPuddleSpace().reserved() && pmem::GlobalPuddleSpace().Contains(addr);
  // The helper thread must never wait on itself.
  if (ours && CurrentTid() == router.helper_tid_.load(std::memory_order_acquire)) {
    ours = false;
  }

  if (ours) {
    // Acquire the mailbox (serializes concurrent faulting threads).
    int expected = 0;
    while (!router.mailbox_state_.compare_exchange_weak(expected, 1,
                                                        std::memory_order_acq_rel)) {
      expected = 0;
      CpuRelax();
    }
    router.mailbox_addr_.store(addr, std::memory_order_release);
    char byte = 1;
    ssize_t ignored = ::write(router.wake_pipe_[1], &byte, 1);
    (void)ignored;
    // Wait for the helper's verdict.
    int state;
    do {
      CpuRelax();
      state = router.mailbox_state_.load(std::memory_order_acquire);
    } while (state == 1);
    router.mailbox_state_.store(0, std::memory_order_release);
    if (state == 2) {
      return;  // Mapped: retry the faulting access.
    }
    // Unresolvable: fall through to the default disposition.
  }

  // Not our fault (or unrecoverable): restore the previous handler and
  // re-raise so the process crashes with an honest SIGSEGV.
  ::sigaction(SIGSEGV, &router.old_action_, nullptr);
  ::raise(SIGSEGV);
}

}  // namespace puddles
