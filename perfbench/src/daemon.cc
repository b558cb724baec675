/**
 * @file
 * Implementation of the daemon launcher and client connections.
 */

#include "daemon.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char **environ;

namespace perfbench {

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Block until @p fd is readable or writable (or 1 ms passes). */
void
waitIo(int fd, bool wantWrite)
{
    pollfd pfd{fd, static_cast<short>(POLLIN | (wantWrite ? POLLOUT : 0)),
               0};
    ::poll(&pfd, 1, 1);
}

/** Non-blocking send of out[*pos..]; false on a socket error. */
bool
sendSome(int fd, std::string &out, size_t *pos)
{
    while (*pos < out.size()) {
        const ssize_t n = ::send(fd, out.data() + *pos, out.size() - *pos,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            *pos += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    if (*pos == out.size()) {
        out.clear();
        *pos = 0;
    }
    return true;
}

/** Non-blocking read of everything available; false on error/EOF. */
bool
recvSome(int fd, std::string &in)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
            in.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
}

/** Close @p fd if open and mark it closed. */
void
closeFd(int &fd)
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

} // namespace

std::unique_ptr<Daemon>
Daemon::start(const RunOptions &options, const std::vector<std::string> &args,
              const std::string &logName, std::string *error)
{
    std::unique_ptr<Daemon> daemon(new Daemon());
    daemon->logPath_ = options.workDir + "/" + logName;
    const std::string portFile = daemon->logPath_ + ".port";
    ::unlink(portFile.c_str());

    std::vector<std::string> argv = {options.binDir + "/qdel_serve",
                                     "--port=0", "--port-file=" + portFile};
    argv.insert(argv.end(), args.begin(), args.end());
    std::vector<char *> cargv;
    for (auto &arg : argv)
        cargv.push_back(arg.data());
    cargv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, daemon->logPath_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    // The daemon inherits the spawning thread's CPU set: give it every
    // usable CPU but the first, which the load generator keeps.
    static const cpu_set_t all = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        ::sched_getaffinity(0, sizeof(set), &set);
        return set;
    }();
    cpu_set_t daemonCpus = all;
    cpu_set_t generatorCpu;
    CPU_ZERO(&generatorCpu);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &all)) {
            CPU_SET(cpu, &generatorCpu);
            if (CPU_COUNT(&all) > 1)
                CPU_CLR(cpu, &daemonCpus);
            break;
        }
    }
    ::sched_setaffinity(0, sizeof(daemonCpus), &daemonCpus);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr,
                               cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::sched_setaffinity(0, sizeof(generatorCpu), &generatorCpu);
    if (rc != 0) {
        *error = "cannot spawn " + argv[0] + ": " + std::strerror(rc);
        return nullptr;
    }
    daemon->pid_ = pid;

    const int64_t deadline = nowNs() + 30'000'000'000LL;
    while (nowNs() < deadline) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            daemon->pid_ = -1;
            *error = "qdel_serve exited during start-up: " +
                     readFile(daemon->logPath_);
            return nullptr;
        }
        const std::string text = readFile(portFile);
        if (!text.empty() && text.back() == '\n') {
            daemon->port_ = std::atoi(text.c_str());
            return daemon;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *error = "qdel_serve did not report a port within 30 s";
    return nullptr;
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
    }
}

bool
Daemon::stop(std::string *log)
{
    if (pid_ <= 0)
        return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const int64_t deadline = nowNs() + 60'000'000'000LL;
    bool exited = false;
    while (nowNs() < deadline) {
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            exited = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!exited) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    *log = readFile(logPath_);
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

FrameConn::FrameConn(int fd) : fd_(fd) {}

FrameConn::~FrameConn()
{
    closeFd(fd_);
}

bool
FrameConn::pump()
{
    if (inPos_ == in_.size()) {
        in_.clear();
        inPos_ = 0;
    } else if (inPos_ > (1u << 20)) {
        in_.erase(0, inPos_);
        inPos_ = 0;
    }
    return sendSome(fd_, out_, &outPos_) && recvSome(fd_, in_);
}

bool
FrameConn::nextFrame(std::string_view *payload)
{
    if (in_.size() - inPos_ < 4)
        return false;
    uint32_t len = 0;
    std::memcpy(&len, in_.data() + inPos_, 4);  // little-endian host
    if (in_.size() - inPos_ - 4 < len)
        return false;
    *payload = std::string_view(in_.data() + inPos_ + 4, len);
    inPos_ += 4 + len;
    return true;
}

bool
FrameConn::call(const std::string &frame, std::string *payload)
{
    out_ += frame;
    for (;;) {
        if (!pump())
            return false;
        std::string_view view;
        if (nextFrame(&view)) {
            payload->assign(view);
            return true;
        }
        waitIo(fd_, !out_.empty());
    }
}

HttpConn::HttpConn(int fd) : fd_(fd) {}

HttpConn::~HttpConn()
{
    closeFd(fd_);
}

void
HttpConn::get(const std::string &path)
{
    out_ = "GET " + path +
           " HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n";
    outPos_ = 0;
    busy_ = true;
}

bool
HttpConn::pump(bool *done, int *status, std::string *body)
{
    *done = false;
    if (!busy_)
        return true;
    if (!sendSome(fd_, out_, &outPos_) || !recvSome(fd_, in_))
        return false;
    const size_t headerEnd = in_.find("\r\n\r\n");
    if (headerEnd == std::string::npos)
        return true;
    std::string headers = in_.substr(0, headerEnd);
    std::transform(headers.begin(), headers.end(), headers.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const size_t lengthAt = headers.find("content-length:");
    if (lengthAt == std::string::npos)
        return false;
    const size_t length =
        std::strtoull(headers.c_str() + lengthAt + 15, nullptr, 10);
    if (in_.size() < headerEnd + 4 + length)
        return true;
    *status = std::atoi(in_.c_str() + in_.find(' ') + 1);
    body->assign(in_, headerEnd + 4, length);
    in_.erase(0, headerEnd + 4 + length);
    busy_ = false;
    *done = true;
    return true;
}

bool
HttpConn::fetch(const std::string &path, std::string *body)
{
    get(path);
    for (;;) {
        bool done = false;
        int status = 0;
        if (!pump(&done, &status, body))
            return false;
        if (done)
            return status == 200;
        waitIo(fd_, !out_.empty());
    }
}

} // namespace perfbench
