//! The application-porting framework of paper §6.1.
//!
//! Porting an application wholesale into an enclave exposes every libc/OS
//! symbol it uses as an *undefined reference* at link time — 93 for
//! memcached, 131 for openVPN, 144 for lighttpd. For each one, the
//! framework generates an EDL ocall declaration (with buffer attributes
//! inferred from the signature, hand-overridable), trusted wrapper code,
//! and an untrusted landing function. Here the declarations are data
//! ([`ApiDecl`]) and the generated artifact is the EDL source text, which
//! flows through the real `sgx-sdk` parser and edger8r.

use sgx_sdk::edl::Direction;

/// Buffer behaviour of one API parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ApiBuffer {
    /// No buffer parameters (e.g. `time`, `getpid`).
    None,
    /// One buffer with the given EDL direction (sized by a `size_t` length
    /// parameter). `In` sends data out of the enclave (e.g. `sendmsg`),
    /// `Out` receives data into it (e.g. `read`).
    Single(Direction),
}

/// One undefined reference discovered while linking the application
/// against the enclave runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApiDecl {
    /// The libc/OS symbol name.
    pub(crate) name: &'static str,
    /// Buffer behaviour (the part the framework sometimes cannot infer
    /// "programmatically" and allows overriding by hand, §6.1).
    pub(crate) buffer: ApiBuffer,
    /// Cycles the OS spends servicing the call (beyond the bare syscall
    /// trap), charged by the untrusted landing function.
    pub(crate) os_cost: u64,
}

impl ApiDecl {
    /// A call with no buffers.
    pub(crate) const fn plain(name: &'static str, os_cost: u64) -> Self {
        ApiDecl {
            name,
            buffer: ApiBuffer::None,
            os_cost,
        }
    }

    /// A call that sends a buffer out of the enclave.
    pub(crate) const fn sends(name: &'static str, os_cost: u64) -> Self {
        ApiDecl {
            name,
            buffer: ApiBuffer::Single(Direction::In),
            os_cost,
        }
    }

    /// A call that receives a buffer into the enclave.
    pub(crate) const fn receives(name: &'static str, os_cost: u64) -> Self {
        ApiDecl {
            name,
            buffer: ApiBuffer::Single(Direction::Out),
            os_cost,
        }
    }
}

/// Generates the EDL source for an application's interface: one ocall per
/// undefined reference, plus the `RunEnclaveFunction` ecall the paper adds
/// for `pthread_create`-style callbacks into the enclave (§6.1).
pub fn generate_edl(apis: &[ApiDecl]) -> String {
    let mut edl = String::from(
        "enclave {\n    trusted {\n        public void ecall_main();\n        public void RunEnclaveFunction([user_check] void* start_routine);\n    };\n    untrusted {\n",
    );
    for api in apis {
        match api.buffer {
            ApiBuffer::None => {
                edl.push_str(&format!("        long {}();\n", api.name));
            }
            ApiBuffer::Single(Direction::In) => {
                edl.push_str(&format!(
                    "        long {}([in, size=len] const uint8_t* buf, size_t len);\n",
                    api.name
                ));
            }
            ApiBuffer::Single(Direction::Out) => {
                edl.push_str(&format!(
                    "        long {}([out, size=len] uint8_t* buf, size_t len);\n",
                    api.name
                ));
            }
            ApiBuffer::Single(Direction::InOut) => {
                edl.push_str(&format!(
                    "        long {}([in, out, size=len] uint8_t* buf, size_t len);\n",
                    api.name
                ));
            }
            ApiBuffer::Single(Direction::UserCheck) => {
                edl.push_str(&format!(
                    "        long {}([user_check] void* p);\n",
                    api.name
                ));
            }
        }
    }
    edl.push_str("    };\n};\n");
    edl
}

/// Filler libc symbols used to pad each application's interface to the
/// reference counts the paper reports (93 / 131 / 144). These are real
/// symbols a wholesale port drags in; they are declared (and costed) but
/// called rarely or never by the workloads.
pub(crate) const COMMON_LIBC: &[&str] = &[
    "fopen",
    "fclose",
    "fread",
    "fwrite",
    "fseek",
    "ftell",
    "fflush",
    "fprintf",
    "fputs",
    "fgets",
    "feof",
    "ferror",
    "fileno",
    "rewind",
    "stat64",
    "lstat64",
    "fstat64",
    "access",
    "unlink",
    "rename",
    "mkdir",
    "rmdir",
    "opendir",
    "readdir",
    "closedir",
    "chdir",
    "getcwd",
    "dup",
    "dup2",
    "pipe",
    "fork_check",
    "execve_check",
    "waitpid",
    "kill_check",
    "signal",
    "sigaction",
    "sigemptyset",
    "sigfillset",
    "sigprocmask",
    "alarm",
    "sleep_",
    "usleep",
    "nanosleep",
    "gettimeofday",
    "clock_gettime",
    "localtime",
    "gmtime",
    "mktime",
    "strftime",
    "tzset",
    "getenv",
    "setenv",
    "unsetenv",
    "putenv",
    "getuid",
    "geteuid",
    "getgid",
    "getegid",
    "setuid",
    "setgid",
    "getpwnam",
    "getpwuid",
    "getgrnam",
    "getrlimit",
    "setrlimit",
    "getrusage",
    "sysconf",
    "uname",
    "gethostname",
    "sethostname",
    "getaddrinfo",
    "freeaddrinfo",
    "getnameinfo",
    "gethostbyname",
    "getsockname",
    "getpeername",
    "socketpair",
    "sendmmsg_",
    "recvmmsg_",
    "readv",
    "pread64",
    "pwrite64",
    "lseek64",
    "ftruncate64",
    "fchmod",
    "fchown",
    "umask",
    "chmod",
    "chown",
    "link_",
    "symlink",
    "readlink",
    "realpath",
    "dlopen_check",
    "dlsym_check",
    "dlclose_check",
    "mmap64",
    "munmap",
    "mprotect",
    "msync",
    "madvise",
    "brk_",
    "sbrk_",
    "mlock",
    "munlock",
    "sched_yield",
    "sched_getaffinity",
    "prctl",
    "syslog_",
    "openlog",
    "closelog",
    "getopt_long",
    "isatty",
    "ttyname",
    "tcgetattr",
    "tcsetattr",
    "system_check",
    "popen_check",
    "pclose_check",
    "random_",
    "srandom_",
    "rand_r",
    "drand48",
    "getpagesize",
    "valloc_",
    "posix_memalign",
    "mallinfo",
    "malloc_trim",
    "malloc_usable_size",
    "strdup_",
    "strndup_",
    "strerror_r",
    "perror_",
    "abort_handler",
    "atexit_",
    "on_exit_",
    "backtrace_",
    "backtrace_symbols",
    "pthread_self_",
    "pthread_attr_init",
    "pthread_attr_destroy",
    "pthread_detach",
    "pthread_join",
    "pthread_key_create",
    "pthread_getspecific",
    "pthread_setspecific",
    "pthread_once",
];

/// Builds an API table of exactly `total` declarations: the named frequent
/// calls first, then filler libc symbols.
///
/// # Panics
///
/// Panics if `total` is smaller than the frequent list or exceeds the
/// available filler pool.
pub(crate) fn pad_api_table(frequent: &[ApiDecl], total: usize) -> Vec<ApiDecl> {
    assert!(total >= frequent.len(), "total below frequent-call count");
    let filler_needed = total - frequent.len();
    assert!(
        filler_needed <= COMMON_LIBC.len(),
        "not enough filler symbols"
    );
    let mut table = frequent.to_vec();
    table.extend(
        COMMON_LIBC[..filler_needed]
            .iter()
            .map(|name| ApiDecl::plain(name, 300)),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sdk::edger8r::edger8r;
    use sgx_sdk::edl::parse_edl;

    #[test]
    fn generated_edl_parses_and_generates_proxies() {
        let apis = [
            ApiDecl::receives("read", 600),
            ApiDecl::sends("sendmsg", 800),
            ApiDecl::plain("getpid", 100),
        ];
        let edl_src = generate_edl(&apis);
        let edl = parse_edl(&edl_src).expect("generated EDL must parse");
        assert_eq!(edl.untrusted.len(), 3);
        assert_eq!(edl.trusted.len(), 2); // ecall_main + RunEnclaveFunction
        let proxies = edger8r(&edl).unwrap();
        assert_eq!(proxies.ocall("read").unwrap().steps.len(), 1);
        assert!(proxies.ecall("RunEnclaveFunction").is_ok());
    }

    #[test]
    fn padding_reaches_reference_counts() {
        let frequent = [ApiDecl::receives("read", 600)];
        for total in [93usize, 131, 144] {
            let table = pad_api_table(&frequent, total);
            assert_eq!(table.len(), total);
            let edl_src = generate_edl(&table);
            let edl = parse_edl(&edl_src).expect("padded EDL must parse");
            assert_eq!(edl.untrusted.len(), total);
        }
    }

    #[test]
    fn filler_names_are_unique() {
        let mut names: Vec<&str> = COMMON_LIBC.to_vec();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate filler symbol");
        assert!(before >= 143, "need enough filler for lighttpd (144)");
    }
}
