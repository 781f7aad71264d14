#include "prof/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/metrics.h"
#include "trace/trace.h"

namespace tegra {
namespace prof {

namespace {

// ---------------------------------------------------------------------------
// Sample storage. Everything the SIGPROF handler touches is a plain atomic
// in pre-allocated memory: no locks, no allocation, no lazy TLS init.
// ---------------------------------------------------------------------------

constexpr size_t kMaxDepth = 48;        // frames kept per sample
constexpr size_t kRingEntries = 512;    // samples buffered per thread
constexpr size_t kMaxThreads = 64;      // registered-thread slots
constexpr size_t kOverflowEntries = 1024;

struct Sample {
  uint32_t depth = 0;
  uintptr_t pcs[kMaxDepth];
};

// Single-producer (the signal handler, which runs on the owning thread with
// SIGPROF auto-blocked, so writes never nest) / single-consumer (the capture
// thread) ring.
struct ThreadSlot {
  std::atomic<int> tid{0};  // 0 = free; claimed via CAS from 0
  std::atomic<bool> ready{false};
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
  char name[32] = {0};
  std::atomic<uint64_t> head{0};  // written by the handler
  std::atomic<uint64_t> tail{0};  // advanced by the capture thread
  std::atomic<uint64_t> dropped{0};
  // Allocated on first claim, never freed. Atomic because the capture thread
  // probes it while other threads are still registering (release store on
  // claim, acquire load on drain); the handler runs on the owning thread and
  // is ordered by program order, so its load is relaxed.
  std::atomic<Sample*> ring{nullptr};
};

ThreadSlot g_slots[kMaxThreads];

// PC-only samples from threads that never registered. Multi-writer: each
// handler invocation claims a slot with fetch_add and stores one atomic PC;
// a wrap overwrites the oldest entry (accounted as a drop at drain time).
std::atomic<uintptr_t> g_overflow[kOverflowEntries];
std::atomic<uint64_t> g_overflow_head{0};
std::atomic<uint64_t> g_overflow_tail{0};

std::atomic<bool> g_armed{false};
std::atomic<int> g_hz{0};
std::atomic<uint64_t> g_samples_total{0};
std::atomic<uint64_t> g_dropped_total{0};

// The handler reads only this trivially-destructible, constant-initialized
// thread_local — a plain TLS load, safe in signal context. The companion
// SlotHandle (non-trivial destructor) recycles the slot at thread exit.
thread_local ThreadSlot* t_slot = nullptr;

thread_local uint64_t t_request_id = 0;

struct SlotHandle {
  ThreadSlot* slot = nullptr;
  ~SlotHandle() {
    if (slot == nullptr) return;
    t_slot = nullptr;
    slot->ready.store(false, std::memory_order_release);
    slot->tid.store(0, std::memory_order_release);  // slot becomes claimable
  }
};
thread_local SlotHandle t_handle;

int GetTid() { return static_cast<int>(::syscall(SYS_gettid)); }

// ---------------------------------------------------------------------------
// The signal handler: read the interrupted PC + frame pointer out of the
// ucontext and walk the frame chain within the thread's known stack bounds.
// ---------------------------------------------------------------------------

void PcFpSpFromContext(void* ucontext, uintptr_t* pc, uintptr_t* fp,
                       uintptr_t* sp) {
  *pc = 0;
  *fp = 0;
  *sp = 0;
  if (ucontext == nullptr) return;
  ucontext_t* uc = static_cast<ucontext_t*>(ucontext);
#if defined(__x86_64__)
  *pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  *fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  *sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  *pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  *fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
  *sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uc;
#endif
}

// Targeted single-thread capture (CaptureThreadStack). The requesting thread
// stores the target tid + a generation, sends a directed SIGPROF, and spins
// on g_capture_done reaching that generation; the handler (running *on* the
// target thread) walks the stack into g_capture_sample and acknowledges.
// g_control_mu serializes requests, so there is at most one in flight.
std::atomic<int> g_capture_target_tid{0};
std::atomic<uint32_t> g_capture_gen{0};   // generation of the pending request
std::atomic<uint32_t> g_capture_done{0};  // last generation completed
Sample g_capture_sample;                  // written by handler, then done

// The frame record at `frame` ([0] = caller's fp, [1] = return address),
// or null when it does not lie within this thread's stack. The upper bound
// is written so that a garbage `frame` near the top of the address space
// cannot wrap past it.
const uintptr_t* RecordAt(const ThreadSlot* slot, uintptr_t frame) {
  if (frame < slot->stack_lo ||
      frame > slot->stack_hi - 2 * sizeof(uintptr_t) ||
      (frame & (sizeof(uintptr_t) - 1)) != 0) {
    return nullptr;
  }
  return reinterpret_cast<const uintptr_t*>(frame);
}

// Finds the nearest saved frame pointer above `sp`: the first stack word
// whose value starts two frame records, each with a saved fp further
// toward the stack base and a return address that could point at code
// (above the never-mapped low 64 KiB, within 48-bit user space, outside
// this stack). Stray pointers to stack locals rarely pass. Returns 0 when
// nothing within reach qualifies. Reads arbitrary stack words, some
// outside any live object and some last written by code the sanitizers
// never saw, hence the exemptions.
__attribute__((no_sanitize("address", "thread"))) uintptr_t ScanForFrame(
    const ThreadSlot* slot, uintptr_t sp) {
  constexpr uintptr_t kScanBytes = 4096;
  const auto plausible_return = [slot](uint64_t ret) {
    return ret >= 0x10000 && (ret >> 48) == 0 &&
           (ret < slot->stack_lo || ret >= slot->stack_hi);
  };
  uintptr_t a = sp & ~static_cast<uintptr_t>(sizeof(uintptr_t) - 1);
  if (a < slot->stack_lo) return 0;
  const uintptr_t end = std::min(slot->stack_hi, a + kScanBytes);
  for (; a + sizeof(uintptr_t) <= end; a += sizeof(uintptr_t)) {
    // Only words above `a` are live stack: below sp the main thread's
    // stack range may not even be mapped.
    const uintptr_t candidate = *reinterpret_cast<const uintptr_t*>(a);
    if (candidate <= a) continue;
    uintptr_t frame = candidate;
    int links = 0;
    for (; links < 2; ++links) {
      const uintptr_t* fr = RecordAt(slot, frame);
      if (fr == nullptr || !plausible_return(fr[1]) || fr[0] <= frame) break;
      frame = fr[0];
    }
    if (links == 2) return candidate;
  }
  return 0;
}

// Walks the frame chain into `s`: [fp] = caller's fp, [fp+8] = return
// address. Every dereference is bounds-checked against this thread's stack
// and the chain must grow strictly toward the stack base, so a corrupt or
// foreign fp terminates the walk instead of faulting. Async-signal-safe.
//
// Code built without frame pointers may hold a scratch value in the frame
// register at the interrupted PC — ThreadSanitizer's libc interceptors do
// while a thread blocks in them. When fp does not lead to a plausible
// record (one above the stack pointer, whose saved fp ends the chain or
// points further toward the base), the walk resumes from the nearest saved
// frame pointer above the stack pointer, losing only the frames in between.
// Such a scratch fp can also point into a live frame's sanitizer redzone
// (a sample landing in ASan's allocator does this), so the record reads
// carry the same exemptions as ScanForFrame's.
__attribute__((no_sanitize("address", "thread"))) void WalkFrameChain(
    const ThreadSlot* slot, uintptr_t pc, uintptr_t fp, uintptr_t sp,
    Sample* s) {
  uint32_t depth = 0;
  s->pcs[depth++] = pc;
  const uintptr_t* first = fp >= sp ? RecordAt(slot, fp) : nullptr;
  uintptr_t frame = first != nullptr && (first[0] == 0 || first[0] > fp)
                        ? fp
                        : ScanForFrame(slot, sp);
  while (depth < kMaxDepth) {
    const uintptr_t* fr = RecordAt(slot, frame);
    if (fr == nullptr || fr[1] == 0) break;
    s->pcs[depth++] = fr[1];
    if (fr[0] <= frame) break;  // must move toward the stack base
    frame = fr[0];
  }
  s->depth = depth;
}

void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  uintptr_t pc = 0, fp = 0, sp = 0;
  PcFpSpFromContext(ucontext, &pc, &fp, &sp);

  // A directed capture aimed at this thread takes priority over sampling:
  // consume it whether the signal came from tgkill or the interval timer.
  const int target = g_capture_target_tid.load(std::memory_order_acquire);
  if (target != 0) {
    ThreadSlot* slot = t_slot;
    if (slot != nullptr && slot->ready.load(std::memory_order_relaxed) &&
        slot->tid.load(std::memory_order_relaxed) == target) {
      if (pc != 0) WalkFrameChain(slot, pc, fp, sp, &g_capture_sample);
      g_capture_target_tid.store(0, std::memory_order_relaxed);
      g_capture_done.store(g_capture_gen.load(std::memory_order_relaxed),
                           std::memory_order_release);
      return;
    }
  }

  if (!g_armed.load(std::memory_order_relaxed)) return;
  g_samples_total.fetch_add(1, std::memory_order_relaxed);
  if (pc == 0) return;

  ThreadSlot* slot = t_slot;
  if (slot == nullptr || !slot->ready.load(std::memory_order_relaxed)) {
    // Unregistered thread: keep the leaf PC so the sample still lands in
    // the profile instead of vanishing.
    const uint64_t idx =
        g_overflow_head.fetch_add(1, std::memory_order_relaxed);
    g_overflow[idx % kOverflowEntries].store(pc, std::memory_order_relaxed);
    return;
  }

  const uint64_t head = slot->head.load(std::memory_order_relaxed);
  const uint64_t tail = slot->tail.load(std::memory_order_acquire);
  if (head - tail >= kRingEntries) {
    slot->dropped.fetch_add(1, std::memory_order_relaxed);
    g_dropped_total.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  Sample& s =
      slot->ring.load(std::memory_order_relaxed)[head % kRingEntries];
  WalkFrameChain(slot, pc, fp, sp, &s);
  slot->head.store(head + 1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Timer plumbing. Preferred: a POSIX per-process CPU-clock timer
// (timer_create) signalling SIGPROF; fallback: the classic setitimer
// ITIMER_PROF. Either way the signal lands on a running thread.
// ---------------------------------------------------------------------------

std::mutex g_control_mu;     // guards Start/Stop/Capture bookkeeping
timer_t g_timer;             // valid while g_timer_valid
bool g_timer_valid = false;
bool g_itimer_active = false;
bool g_handler_installed = false;

// Installs the SIGPROF handler once. Caller holds g_control_mu.
Status InstallHandlerLocked() {
  if (g_handler_installed) return Status::OK();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &SigprofHandler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    return Status::Internal("profiler: sigaction(SIGPROF) failed");
  }
  g_handler_installed = true;
  return Status::OK();
}

Status ArmTimer(int hz) {
  const long interval_ns = static_cast<long>(1e9 / hz);
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &g_timer) == 0) {
    struct itimerspec spec;
    spec.it_interval.tv_sec = interval_ns / 1000000000L;
    spec.it_interval.tv_nsec = interval_ns % 1000000000L;
    spec.it_value = spec.it_interval;
    if (timer_settime(g_timer, 0, &spec, nullptr) == 0) {
      g_timer_valid = true;
      return Status::OK();
    }
    timer_delete(g_timer);
  }
  // Fallback: ITIMER_PROF (microsecond granularity, same SIGPROF delivery).
  struct itimerval itv;
  itv.it_interval.tv_sec = 0;
  itv.it_interval.tv_usec = std::max(1L, 1000000L / hz);
  itv.it_value = itv.it_interval;
  if (setitimer(ITIMER_PROF, &itv, nullptr) != 0) {
    return Status::Internal("profiler: neither timer_create nor setitimer "
                            "could arm a SIGPROF timer");
  }
  g_itimer_active = true;
  return Status::OK();
}

void DisarmTimer() {
  if (g_timer_valid) {
    timer_delete(g_timer);
    g_timer_valid = false;
  }
  if (g_itimer_active) {
    struct itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
    g_itimer_active = false;
  }
}

// ---------------------------------------------------------------------------
// Symbolization (capture-side only; never in the handler).
// ---------------------------------------------------------------------------

std::string SymbolizePc(uintptr_t pc,
                        std::unordered_map<uintptr_t, std::string>* cache) {
  auto it = cache->find(pc);
  if (it != cache->end()) return it->second;

  std::string name;
  Dl_info info;
  // The sampled PC for non-leaf frames is a *return* address: one past the
  // call. Resolve pc-1 so a call as a function's final instruction doesn't
  // get attributed to the next symbol.
  if (dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(pc));
    name = buf;
  }
  // Folded-stack syntax reserves ';' (frame separator) and ' ' (count
  // separator); template-heavy demangled names are full of neither but
  // guard anyway.
  for (char& c : name) {
    if (c == ';' || c == '\n') c = ':';
    if (c == ' ') c = '.';
  }
  (*cache)[pc] = name;
  return name;
}

struct StackKey {
  std::vector<uintptr_t> pcs;
  bool operator<(const StackKey& o) const { return pcs < o.pcs; }
};

void DrainInto(std::map<StackKey, uint64_t>* agg, uint64_t* drained,
               uint64_t* dropped) {
  for (ThreadSlot& slot : g_slots) {
    const Sample* ring = slot.ring.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    uint64_t tail = slot.tail.load(std::memory_order_relaxed);
    const uint64_t head = slot.head.load(std::memory_order_acquire);
    for (; tail != head; ++tail) {
      const Sample& s = ring[tail % kRingEntries];
      StackKey key;
      key.pcs.assign(s.pcs, s.pcs + std::min<uint32_t>(s.depth, kMaxDepth));
      if (!key.pcs.empty()) {
        ++(*agg)[key];
        ++(*drained);
      }
    }
    slot.tail.store(tail, std::memory_order_release);
    *dropped += slot.dropped.exchange(0, std::memory_order_relaxed);
  }
  uint64_t otail = g_overflow_tail.load(std::memory_order_relaxed);
  const uint64_t ohead = g_overflow_head.load(std::memory_order_relaxed);
  if (ohead - otail > kOverflowEntries) {
    *dropped += (ohead - otail) - kOverflowEntries;
    otail = ohead - kOverflowEntries;
  }
  for (; otail != ohead; ++otail) {
    const uintptr_t pc =
        g_overflow[otail % kOverflowEntries].load(std::memory_order_relaxed);
    if (pc == 0) continue;
    StackKey key;
    key.pcs.push_back(pc);
    ++(*agg)[key];
    ++(*drained);
  }
  g_overflow_tail.store(otail, std::memory_order_relaxed);
}

}  // namespace

void EnsureThreadRegistered(const std::string& name) {
  if (t_slot != nullptr) return;

  int expected = 0;
  const int tid = GetTid();
  ThreadSlot* claimed = nullptr;
  for (ThreadSlot& slot : g_slots) {
    expected = 0;
    if (slot.tid.compare_exchange_strong(expected, tid,
                                         std::memory_order_acq_rel)) {
      claimed = &slot;
      break;
    }
  }
  if (claimed == nullptr) return;  // more threads than slots: PC-only samples

  if (claimed->ring.load(std::memory_order_relaxed) == nullptr) {
    // Recycled forever, never freed. Release so a concurrent drain that
    // observes the pointer also observes the allocation.
    claimed->ring.store(new Sample[kRingEntries], std::memory_order_release);
  }
  claimed->head.store(0, std::memory_order_relaxed);
  claimed->tail.store(0, std::memory_order_relaxed);
  claimed->dropped.store(0, std::memory_order_relaxed);
  std::snprintf(claimed->name, sizeof(claimed->name), "%s", name.c_str());

  pthread_attr_t attr;
  void* stack_addr = nullptr;
  size_t stack_size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    pthread_attr_getstack(&attr, &stack_addr, &stack_size);
    pthread_attr_destroy(&attr);
  }
  if (stack_addr == nullptr || stack_size == 0) {
    claimed->tid.store(0, std::memory_order_release);
    return;  // can't bound the walk safely; stay unregistered
  }
  claimed->stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
  claimed->stack_hi = claimed->stack_lo + stack_size;

  t_handle.slot = claimed;  // destructor recycles the slot at thread exit
  claimed->ready.store(true, std::memory_order_release);
  t_slot = claimed;
}

std::vector<RegisteredThread> RegisteredThreads() {
  std::vector<RegisteredThread> out;
  for (ThreadSlot& slot : g_slots) {
    const int tid = slot.tid.load(std::memory_order_acquire);
    if (tid == 0 || !slot.ready.load(std::memory_order_acquire)) continue;
    RegisteredThread t;
    t.tid = tid;
    t.name = slot.name;
    out.push_back(std::move(t));
  }
  return out;
}

Result<std::string> CaptureThreadStack(int tid, int timeout_ms) {
  if (tid <= 0) return Status::InvalidArgument("profiler: bad tid");
  // Serializes against Start/Stop (handler install) and other targeted
  // captures: at most one request is in flight at a time.
  std::lock_guard<std::mutex> lock(g_control_mu);
  TEGRA_RETURN_NOT_OK(InstallHandlerLocked());

  bool registered = false;
  for (ThreadSlot& slot : g_slots) {
    if (slot.tid.load(std::memory_order_acquire) == tid &&
        slot.ready.load(std::memory_order_acquire)) {
      registered = true;
      break;
    }
  }
  if (!registered) {
    return Status::NotFound("profiler: tid " + std::to_string(tid) +
                            " is not a registered thread");
  }

  const uint32_t gen =
      g_capture_gen.fetch_add(1, std::memory_order_relaxed) + 1;
  g_capture_sample.depth = 0;
  g_capture_target_tid.store(tid, std::memory_order_release);
  if (::syscall(SYS_tgkill, ::getpid(), tid, SIGPROF) != 0) {
    g_capture_target_tid.store(0, std::memory_order_relaxed);
    return Status::Internal("profiler: tgkill(" + std::to_string(tid) +
                            ", SIGPROF) failed");
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(1, timeout_ms));
  while (g_capture_done.load(std::memory_order_acquire) != gen) {
    if (std::chrono::steady_clock::now() >= deadline) {
      // Leave no dangling target: a late handler run must not scribble into
      // g_capture_sample while a future request is using it.
      g_capture_target_tid.store(0, std::memory_order_relaxed);
      return Status::DeadlineExceeded(
          "profiler: thread " + std::to_string(tid) +
          " did not take SIGPROF within " + std::to_string(timeout_ms) +
          "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Folded output is root-first; the walk stored leaf-first.
  const uint32_t depth =
      std::min<uint32_t>(g_capture_sample.depth, kMaxDepth);
  if (depth == 0) {
    return Status::Internal("profiler: targeted capture yielded no frames");
  }
  std::unordered_map<uintptr_t, std::string> cache;
  std::string line;
  for (uint32_t i = depth; i-- > 0;) {
    if (!line.empty()) line += ';';
    line += SymbolizePc(g_capture_sample.pcs[i], &cache);
  }
  return line;
}

std::string Profile::ToFolded() const {
  // Highest-count stacks first so `head` on the output shows the hot spots.
  std::vector<std::pair<uint64_t, const std::string*>> order;
  order.reserve(folded.size());
  for (const auto& [stack, count] : folded) {
    order.emplace_back(count, &stack);
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return *a.second < *b.second;
            });
  std::ostringstream out;
  for (const auto& [count, stack] : order) {
    out << *stack << " " << count << "\n";
  }
  return out.str();
}

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* instance = new CpuProfiler();
  return *instance;
}

Status CpuProfiler::Start(int hz) {
  if (hz <= 0 || hz > 10000) {
    return Status::InvalidArgument("profiler: hz must be in (0, 10000]");
  }
  std::lock_guard<std::mutex> lock(g_control_mu);
  if (g_armed.load(std::memory_order_relaxed)) return Status::OK();

  TEGRA_RETURN_NOT_OK(InstallHandlerLocked());
  TEGRA_RETURN_NOT_OK(ArmTimer(hz));
  g_hz.store(hz, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
  return Status::OK();
}

void CpuProfiler::Stop() {
  std::lock_guard<std::mutex> lock(g_control_mu);
  if (!g_armed.load(std::memory_order_relaxed)) return;
  g_armed.store(false, std::memory_order_release);
  DisarmTimer();
}

bool CpuProfiler::running() const {
  return g_armed.load(std::memory_order_acquire);
}

int CpuProfiler::hz() const { return g_hz.load(std::memory_order_relaxed); }

uint64_t CpuProfiler::samples_total() const {
  return g_samples_total.load(std::memory_order_relaxed);
}

uint64_t CpuProfiler::dropped_total() const {
  return g_dropped_total.load(std::memory_order_relaxed);
}

Result<Profile> CpuProfiler::Capture(double seconds) {
  if (seconds <= 0 || seconds > 120) {
    return Status::InvalidArgument("profiler: seconds must be in (0, 120]");
  }
  // One capture at a time; a second caller waits its turn rather than
  // stealing samples from the first window.
  static std::mutex capture_mu;
  std::lock_guard<std::mutex> capture_lock(capture_mu);

  const bool was_running = running();
  if (!was_running) {
    TEGRA_RETURN_NOT_OK(Start(99));
  }

  // Discard everything buffered before the window opened.
  {
    std::map<StackKey, uint64_t> discard;
    uint64_t n = 0, d = 0;
    DrainInto(&discard, &n, &d);
  }

  std::map<StackKey, uint64_t> agg;
  uint64_t drained = 0;
  uint64_t dropped = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  // Drain frequently enough that a busy thread's 512-entry ring (≈5 s of
  // buffer at 99 Hz) cannot wrap within one sweep even at high rates.
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    DrainInto(&agg, &drained, &dropped);
  }
  DrainInto(&agg, &drained, &dropped);

  Profile profile;
  profile.total_samples = drained;
  profile.dropped = dropped;
  profile.hz = hz();
  profile.seconds = seconds;

  std::unordered_map<uintptr_t, std::string> symbol_cache;
  for (const auto& [key, count] : agg) {
    // Samples store leaf-first (interrupted PC, caller, ...); folded format
    // wants root-first with the leaf last.
    std::string line;
    for (auto it = key.pcs.rbegin(); it != key.pcs.rend(); ++it) {
      if (!line.empty()) line += ';';
      line += SymbolizePc(*it, &symbol_cache);
    }
    profile.folded[line] += count;
  }

  if (!was_running) Stop();
  return profile;
}

uint64_t CurrentRequestId() { return t_request_id; }

ScopedRequestId::ScopedRequestId(uint64_t id) : prev_(t_request_id) {
  t_request_id = id;
}

ScopedRequestId::~ScopedRequestId() { t_request_id = prev_; }

namespace {

bool TraceExemplarSource(uint64_t* trace_id, uint64_t* request_id) {
  const trace::TraceContext* ctx = trace::CurrentContext();
  if (ctx == nullptr) return false;
  const uint64_t id = ctx->trace_id();
  if (id == 0) return false;
  *trace_id = id;
  *request_id = t_request_id;
  return true;
}

}  // namespace

void InstallExemplarSource() {
  Histogram::SetExemplarSource(&TraceExemplarSource);
}

}  // namespace prof
}  // namespace tegra
