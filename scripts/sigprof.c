/* A sampling profiler in one LD_PRELOAD shim (x86-64 Linux, std C only);
 * scripts/profile.sh builds it and reads what it writes.
 *
 * With SIGPROF_OUT set, a constructor arms ITIMER_PROF. On each SIGPROF
 * (the kernel delivers them at most once per scheduler tick, HZ) the
 * handler records the interrupted instruction pointer and the return
 * addresses of the frame-pointer chain above it. Stack words are read
 * with process_vm_readv, so a chain broken by code built without frame
 * pointers (the precompiled standard library) ends the walk instead of
 * faulting. At exit the process writes /proc/self/maps, a line
 * "samples", then one sample per line (hex addresses, leaf first) to
 * $SIGPROF_OUT.<pid>. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define SLOTS (1u << 24) /* words reserved for samples; pages are touched as used */
#define DEPTH 128

static uint64_t *buf;
static uint64_t used;
static pid_t self;

static int peek(uint64_t addr, uint64_t out[2]) {
    struct iovec local = {out, 16}, remote = {(void *)addr, 16};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == 16;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t frames[DEPTH], word[2];
    uint64_t fp = regs[REG_RBP], sp = regs[REG_RSP];
    unsigned n = 0;
    frames[n++] = regs[REG_RIP];
    /* A frame is [saved rbp, return address]; frames only grow upwards. */
    while (n < DEPTH && fp >= sp && fp % 8 == 0 && peek(fp, word) && word[1] != 0) {
        frames[n++] = word[1];
        sp = fp + 16;
        fp = word[0];
    }
    uint64_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > SLOTS)
        return;
    buf[at] = n;
    memcpy(buf + at + 1, frames, n * sizeof frames[0]);
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("SIGPROF_OUT"))
        return;
    self = getpid();
    buf = mmap(NULL, SLOTS * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        buf = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    if (!buf)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("SIGPROF_OUT"), (int)getpid());
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) {
        perror("sigprof");
        return;
    }
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("samples\n", out);
    /* Once the buffer is full every later sample is dropped unwritten,
     * leaving a zero where its length would be. */
    uint64_t end = used < SLOTS ? used : SLOTS;
    for (uint64_t i = 0; i < end && buf[i] && i + 1 + buf[i] <= end; i += 1 + buf[i]) {
        for (uint64_t k = 0; k < buf[i]; k++)
            fprintf(out, k ? " %lx" : "%lx", (unsigned long)buf[i + 1 + k]);
        fputc('\n', out);
    }
    fclose(out);
}
