#include "src/tracing/span.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/metrics/json.h"
#include "src/metrics/json_writer.h"
#include "src/metrics/sampler.h"

namespace hlrc {

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kFault:
      return "fault";
    case SpanKind::kLock:
      return "lock";
    case SpanKind::kBarrier:
      return "barrier";
    case SpanKind::kIntervalClose:
      return "interval-close";
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kWire:
      return "wire";
    case SpanKind::kRetransmit:
      return "retransmit";
    case SpanKind::kService:
      return "service";
    case SpanKind::kHomeWait:
      return "home-wait";
    case SpanKind::kDiffCreate:
      return "diff-create";
    case SpanKind::kDiffApply:
      return "diff-apply";
    case SpanKind::kWnApply:
      return "wn-apply";
    case SpanKind::kLockHold:
      return "lock-hold";
    case SpanKind::kBarrierGather:
      return "barrier-gather";
    case SpanKind::kCoalesceHold:
      return "coalesce-hold";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

SpanKind SpanKindFromName(const std::string& name) {
  for (int i = 0; i < static_cast<int>(SpanKind::kCount); ++i) {
    const SpanKind k = static_cast<SpanKind>(i);
    if (name == SpanKindName(k)) {
      return k;
    }
  }
  return SpanKind::kCount;
}

bool SpanKindIsRoot(SpanKind k) {
  return k == SpanKind::kFault || k == SpanKind::kLock ||
         k == SpanKind::kBarrier || k == SpanKind::kIntervalClose;
}

SpanTracer::SpanTracer(size_t capacity) : capacity_(capacity) {
  HLRC_CHECK(capacity > 0);
}

SpanId SpanTracer::Begin(SpanKind kind, NodeId node, SimTime t0, SpanId parent,
                         int64_t a0, int64_t a1) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  Span s;
  s.id = static_cast<SpanId>(spans_.size());
  s.parent = Valid(parent) ? parent : kNoSpan;
  s.kind = kind;
  s.node = node;
  s.t0 = t0;
  s.t1 = t0;
  s.a0 = a0;
  s.a1 = a1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanTracer::End(SpanId id, SimTime t1) {
  if (!Valid(id)) {
    return;
  }
  spans_[static_cast<size_t>(id)].t1 = t1;
}

SpanId SpanTracer::Emit(SpanKind kind, NodeId node, SimTime t0, SimTime t1,
                        SpanId parent, int64_t a0, int64_t a1) {
  const SpanId id = Begin(kind, node, t0, parent, a0, a1);
  End(id, t1);
  return id;
}

void SpanTracer::AddLink(SpanId target, SpanId from) {
  if (!Valid(target) || !Valid(from) || target == from) {
    return;
  }
  spans_[static_cast<size_t>(target)].links.push_back(from);
}

void SpanTracer::SetVt(SpanId id, const std::vector<uint32_t>& vt) {
  if (!Valid(id)) {
    return;
  }
  spans_[static_cast<size_t>(id)].vt = vt;
}

bool WriteChromeTrace(const std::string& path, const SpanTracer& tracer,
                      const Sampler& sampler, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *err = "cannot open " + path + " for writing";
    return false;
  }
  // Events are staged in `out` and written in chunks, so a run's full event
  // set never sits in memory as one string.
  std::string out = "[\n";
  bool ok = true;
  auto flush = [&] {
    ok = ok && std::fwrite(out.data(), 1, out.size(), f) == out.size();
    out.clear();
  };
  char buf[256];
  bool first = true;
  auto append = [&](const char* fmt, auto... args) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
    if (out.size() >= (1 << 20)) {
      flush();
    }
  };
  int64_t flow_id = 0;
  for (const Span& s : tracer.spans()) {
    append(
        "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
        "\"args\":{\"span\":%lld,\"a0\":%lld,\"a1\":%lld}}",
        SpanKindName(s.kind), ToMicros(s.t0), ToMicros(s.t1 - s.t0), s.node,
        static_cast<long long>(s.id), static_cast<long long>(s.a0),
        static_cast<long long>(s.a1));
    for (const SpanId from : s.links) {
      const Span& src = tracer.spans()[static_cast<size_t>(from)];
      ++flow_id;
      append(
          "{\"name\":\"span-flow\",\"cat\":\"span\",\"ph\":\"s\","
          "\"id\":%lld,\"ts\":%.3f,\"pid\":0,\"tid\":%d}",
          static_cast<long long>(flow_id), ToMicros(src.t1), src.node);
      append(
          "{\"name\":\"span-flow\",\"cat\":\"span\",\"ph\":\"f\",\"bp\":\"e\","
          "\"id\":%lld,\"ts\":%.3f,\"pid\":0,\"tid\":%d}",
          static_cast<long long>(flow_id), ToMicros(s.t0), s.node);
    }
  }
  // The sampler's counter tracks, one per (series, node): Chrome groups
  // counters by (pid, name), so a per-node series gets its node as pid.
  const std::vector<Sampler::SeriesInfo>& series = sampler.series();
  for (size_t si = 0; si < series.size(); ++si) {
    const std::string name = JsonWriter::Escape(series[si].name);
    const int pid = series[si].node < 0 ? 0 : series[si].node;
    for (const Sampler::Sample& s : sampler.samples()) {
      append(
          "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,"
          "\"args\":{\"value\":%.17g}}",
          name.c_str(), ToMicros(s.time), pid, s.values[si]);
    }
  }
  out += "\n]\n";
  flush();
  if (std::fclose(f) != 0 || !ok) {
    *err = "short write to " + path;
    return false;
  }
  return true;
}

void WriteSpansJson(JsonWriter* w, const SpanTracer& tracer) {
  w->Key("spans");
  w->BeginObject();
  w->KV("schema", kSpansSchemaName);
  w->KV("version", kSpansSchemaVersion);
  w->KV("dropped", tracer.dropped());
  w->Key("spans");
  w->BeginArray();
  for (const Span& s : tracer.spans()) {
    w->BeginObject();
    w->KV("id", s.id);
    w->KV("kind", SpanKindName(s.kind));
    w->KV("node", static_cast<int64_t>(s.node));
    w->KV("t0", s.t0);
    w->KV("t1", s.t1);
    if (s.parent != kNoSpan) {
      w->KV("parent", s.parent);
    }
    if (!s.links.empty()) {
      w->Key("links");
      w->BeginArray();
      for (const SpanId l : s.links) {
        w->Int(l);
      }
      w->EndArray();
    }
    if (s.a0 != 0) {
      w->KV("a0", s.a0);
    }
    if (s.a1 != 0) {
      w->KV("a1", s.a1);
    }
    if (!s.vt.empty()) {
      w->Key("vt");
      w->BeginArray();
      for (const uint32_t c : s.vt) {
        w->Int(static_cast<int64_t>(c));
      }
      w->EndArray();
    }
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

bool ParseSpans(const JsonValue& summary_root, std::vector<Span>* out,
                int64_t* dropped, std::string* err) {
  const JsonValue* sec = summary_root.Find("spans");
  if (sec == nullptr) {
    *err = "run summary has no \"spans\" section (run svmsim with --metrics-out)";
    return false;
  }
  if (!sec->IsObject()) {
    *err = "\"spans\" section is not an object";
    return false;
  }
  if (sec->GetString("schema") != kSpansSchemaName) {
    *err = "spans: schema is not \"" + std::string(kSpansSchemaName) + "\"";
    return false;
  }
  if (sec->GetInt("version", -1) != kSpansSchemaVersion) {
    *err = "spans: unsupported version";
    return false;
  }
  if (dropped != nullptr) {
    *dropped = sec->GetInt("dropped", 0);
  }
  const JsonValue* arr = sec->Find("spans");
  if (arr == nullptr || !arr->IsArray()) {
    *err = "spans: missing span array";
    return false;
  }
  out->clear();
  out->reserve(arr->arr.size());
  for (size_t i = 0; i < arr->arr.size(); ++i) {
    const JsonValue& e = arr->arr[i];
    const std::string at = "spans[" + std::to_string(i) + "]: ";
    if (!e.IsObject()) {
      *err = at + "not an object";
      return false;
    }
    Span s;
    const JsonValue* id = e.Find("id");
    if (id == nullptr || !id->is_int) {
      *err = at + "missing integer \"id\"";
      return false;
    }
    s.id = id->num_i;
    s.kind = SpanKindFromName(e.GetString("kind"));
    if (s.kind == SpanKind::kCount) {
      *err = at + "unknown kind \"" + e.GetString("kind") + "\"";
      return false;
    }
    const JsonValue* t0 = e.Find("t0");
    const JsonValue* t1 = e.Find("t1");
    if (t0 == nullptr || !t0->is_int || t1 == nullptr || !t1->is_int) {
      *err = at + "missing integer \"t0\"/\"t1\"";
      return false;
    }
    s.t0 = t0->num_i;
    s.t1 = t1->num_i;
    s.node = static_cast<NodeId>(e.GetInt("node", -1));
    s.parent = e.GetInt("parent", kNoSpan);
    s.a0 = e.GetInt("a0", 0);
    s.a1 = e.GetInt("a1", 0);
    if (const JsonValue* links = e.Find("links")) {
      if (!links->IsArray()) {
        *err = at + "\"links\" is not an array";
        return false;
      }
      for (const JsonValue& l : links->arr) {
        if (!l.is_int) {
          *err = at + "non-integer link";
          return false;
        }
        s.links.push_back(l.num_i);
      }
    }
    if (const JsonValue* vt = e.Find("vt")) {
      if (!vt->IsArray()) {
        *err = at + "\"vt\" is not an array";
        return false;
      }
      for (const JsonValue& c : vt->arr) {
        if (!c.is_int || c.num_i < 0) {
          *err = at + "bad vector-clock entry";
          return false;
        }
        s.vt.push_back(static_cast<uint32_t>(c.num_i));
      }
    }
    out->push_back(std::move(s));
  }
  return true;
}

}  // namespace hlrc
