#include "src/metrics/json_writer.h"

#include <charconv>
#include <cmath>

namespace hlrc {

namespace {

// Appends `s` with JSON's escapes; runs that need none are copied whole.
void AppendEscaped(std::string& out, std::string_view s) {
  size_t run = 0;  // Start of the run not yet copied.
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        out += "\\u00";
        out += "0123456789abcdef"[c >> 4];
        out += "0123456789abcdef"[c & 0xf];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

// The longest number either path prints is "-1.2345678901234567e-308", 24
// characters.
constexpr size_t kNumberChars = 32;

void AppendInt(std::string& out, int64_t v) {
  char buf[kNumberChars];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

JsonWriter::JsonWriter(std::FILE* sink) : sink_(sink) {
  // The buffer passes kFlushBytes by at most one element before it drains.
  out_.reserve(2 * kFlushBytes);
}

// Before each array element or object key: drains a full buffer to the sink,
// then emits the comma that separates the element from the previous one.
void JsonWriter::BeforeElement() {
  if (sink_ != nullptr && out_.size() >= kFlushBytes) {
    Drain();
  }
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      out_ += ',';
    }
  }
}

void JsonWriter::BeforeValue() {
  if (have_key_) {
    have_key_ = false;
    return;  // Comma was emitted before the key.
  }
  BeforeElement();
}

void JsonWriter::Drain() {
  if (!sink_failed_ && std::fwrite(out_.data(), 1, out_.size(), sink_) != out_.size()) {
    sink_failed_ = true;
  }
  out_.clear();
}

bool JsonWriter::Flush() {
  if (sink_ == nullptr) {
    return true;
  }
  Drain();
  if (std::fflush(sink_) != 0) {
    sink_failed_ = true;
  }
  return !sink_failed_;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  out_ += '}';
  first_.pop_back();
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  out_ += ']';
  first_.pop_back();
}

void JsonWriter::Key(std::string_view k) {
  BeforeElement();
  out_ += '"';
  AppendEscaped(out_, k);
  out_ += "\":";
  have_key_ = true;
}

void JsonWriter::String(std::string_view v) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(out_, v);
  out_ += '"';
}

void JsonWriter::Int(int64_t v) {
  BeforeValue();
  AppendInt(out_, v);
}

void JsonWriter::Double(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  // "%.17g" prints an integer of magnitude below 2^53 as its plain digits,
  // as the integer path does; -0.0 keeps its sign through to_chars.
  if (std::fabs(v) < 9007199254740992.0) {
    const int64_t i = static_cast<int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      AppendInt(out_, i);
      return;
    }
  }
  // to_chars with a precision prints what printf does with that precision.
  char buf[kNumberChars];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17).ptr);
}

void JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

bool JsonWriter::WriteFile(const std::string& path, std::string* err) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) {
      *err = "cannot open " + path + " for writing";
    }
    return false;
  }
  const size_t n = std::fwrite(out_.data(), 1, out_.size(), f);
  const bool flushed = std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || n != out_.size() || !flushed) {
    if (err != nullptr) {
      *err = "short write to " + path;
    }
    return false;
  }
  return true;
}

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(out, s);
  return out;
}

}  // namespace hlrc
