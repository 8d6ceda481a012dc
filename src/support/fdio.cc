#include "support/fdio.hh"

#include <cerrno>
#include <unistd.h>

namespace memoria {

int
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errno;
        }
        off += static_cast<size_t>(n);
    }
    return 0;
}

int
fsyncRetry(int fd)
{
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc < 0 && errno == EINTR);
    return rc;
}

} // namespace memoria
