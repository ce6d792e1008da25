#include "obs/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/log.hh"

namespace flashcache {
namespace obs {

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(&os), indent_(indent)
{
}

JsonWriter::~JsonWriter()
{
    if (!stack_.empty())
        warn("JsonWriter destroyed with unclosed scopes");
}

void
JsonWriter::newlineIndent()
{
    if (indent_ <= 0)
        return;
    *os_ << '\n';
    for (std::size_t i = 0; i < stack_.size() * indent_; ++i)
        *os_ << ' ';
}

void
JsonWriter::preValue()
{
    if (stack_.empty())
        return; // top-level value
    if (stack_.back() == Scope::Object) {
        if (!keyPending_)
            panic("JsonWriter: value inside object without key()");
        keyPending_ = false;
        return; // key() already handled the comma/indent
    }
    if (!firstInScope_)
        *os_ << ',';
    firstInScope_ = false;
    newlineIndent();
}

void
JsonWriter::key(std::string_view k)
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        panic("JsonWriter: key() outside an object");
    if (keyPending_)
        panic("JsonWriter: key() twice without a value");
    if (!firstInScope_)
        *os_ << ',';
    firstInScope_ = false;
    newlineIndent();
    *os_ << '"';
    writeEscaped(k);
    *os_ << "\":";
    if (indent_ > 0)
        *os_ << ' ';
    keyPending_ = true;
}

void
JsonWriter::beginObject()
{
    preValue();
    *os_ << '{';
    stack_.push_back(Scope::Object);
    firstInScope_ = true;
}

void
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Scope::Object || keyPending_)
        panic("JsonWriter: unbalanced endObject()");
    const bool empty = firstInScope_;
    stack_.pop_back();
    if (!empty)
        newlineIndent();
    *os_ << '}';
    firstInScope_ = false;
}

void
JsonWriter::beginArray()
{
    preValue();
    *os_ << '[';
    stack_.push_back(Scope::Array);
    firstInScope_ = true;
}

void
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Scope::Array)
        panic("JsonWriter: unbalanced endArray()");
    const bool empty = firstInScope_;
    stack_.pop_back();
    if (!empty)
        newlineIndent();
    *os_ << ']';
    firstInScope_ = false;
}

void
JsonWriter::value(double v)
{
    preValue();
    if (!std::isfinite(v)) {
        // JSON has no NaN/Inf; null is the honest encoding.
        *os_ << "null";
        return;
    }
    // Shortest representation that round-trips a double; integers
    // under 2^53 print without an exponent or trailing ".0".
    char buf[40];
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        std::abs(v) < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    *os_ << buf;
}

void
JsonWriter::value(std::uint64_t v)
{
    preValue();
    *os_ << v;
}

void
JsonWriter::value(std::int64_t v)
{
    preValue();
    *os_ << v;
}

void
JsonWriter::value(std::string_view v)
{
    preValue();
    *os_ << '"';
    writeEscaped(v);
    *os_ << '"';
}

void
JsonWriter::writeEscaped(std::string_view s)
{
    for (const char c : s) {
        switch (c) {
          case '"': *os_ << "\\\""; break;
          case '\\': *os_ << "\\\\"; break;
          case '\n': *os_ << "\\n"; break;
          case '\r': *os_ << "\\r"; break;
          case '\t': *os_ << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                *os_ << buf;
            } else {
                *os_ << c;
            }
        }
    }
}

} // namespace obs
} // namespace flashcache
