#include "sim/serving_trace.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace actcomp::sim {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("serving_trace: " + msg);
}

}  // namespace

obs::json::Value serving_trace_to_json(
    const std::vector<ServingRequest>& requests) {
  obs::json::Value doc = obs::json::Value::object();
  doc.set("schema", kServingTraceSchema);
  obs::json::Value arr = obs::json::Value::array();
  for (const ServingRequest& r : requests) {
    obs::json::Value item = obs::json::Value::object();
    item.set("arrival_ms", r.arrival_ms);
    item.set("prompt_tokens", r.prompt_tokens);
    item.set("max_new_tokens", r.max_new_tokens);
    arr.push_back(std::move(item));
  }
  doc.set("requests", std::move(arr));
  return doc;
}

std::vector<ServingRequest> serving_trace_from_json(
    const obs::json::Value& doc) {
  if (doc.kind() != obs::json::Kind::kObject) {
    fail("document is not a JSON object");
  }
  const obs::json::Value* schema = doc.find("schema");
  if (schema == nullptr || schema->kind() != obs::json::Kind::kString) {
    fail("missing string field 'schema'");
  }
  if (schema->as_string() != kServingTraceSchema) {
    fail("schema '" + schema->as_string() + "' — expected '" +
         std::string(kServingTraceSchema) + "'");
  }
  const obs::json::Value* reqs = doc.find("requests");
  if (reqs == nullptr || reqs->kind() != obs::json::Kind::kArray) {
    fail("missing array field 'requests'");
  }
  std::vector<ServingRequest> out;
  out.reserve(reqs->size());
  for (size_t i = 0; i < reqs->size(); ++i) {
    const obs::json::Value& item = reqs->at(i);
    std::ostringstream at;
    at << "requests[" << i << "]";
    if (item.kind() != obs::json::Kind::kObject) {
      fail(at.str() + " is not an object");
    }
    auto number = [&](const char* key) {
      const obs::json::Value* v = item.find(key);
      if (v == nullptr || (v->kind() != obs::json::Kind::kInt &&
                           v->kind() != obs::json::Kind::kDouble)) {
        fail(at.str() + ": missing numeric field '" + key + "'");
      }
      return v;
    };
    ServingRequest r;
    r.arrival_ms = number("arrival_ms")->as_double();
    // JSON has no inf/nan: an overflowing literal such as 1e999 parses to
    // inf, which save would write back as null.
    if (!std::isfinite(r.arrival_ms)) {
      fail(at.str() + ": arrival_ms is not finite");
    }
    // Token counts must be integer literals: a double node such as 24. or
    // 2.4e1 has no integer value to read, and as_int() would return 0.
    auto integer = [&](const char* key) {
      const obs::json::Value* v = number(key);
      if (v->kind() != obs::json::Kind::kInt) {
        fail(at.str() + ": '" + key + "' is not an integer");
      }
      return v->as_int();
    };
    r.prompt_tokens = integer("prompt_tokens");
    r.max_new_tokens = integer("max_new_tokens");
    out.push_back(r);
  }
  return out;
}

void save_serving_trace(const std::string& path,
                        const std::vector<ServingRequest>& requests) {
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("serving_trace: cannot open '" + path +
                             "' for writing");
  }
  f << serving_trace_to_json(requests).dump(2) << "\n";
  if (!f) {
    throw std::runtime_error("serving_trace: write to '" + path + "' failed");
  }
}

std::vector<ServingRequest> load_serving_trace(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("serving_trace: cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  std::string err;
  const obs::json::Value doc = obs::json::Value::parse(buf.str(), &err);
  if (doc.is_null() && !err.empty()) {
    fail("parse error in '" + path + "': " + err);
  }
  return serving_trace_from_json(doc);
}

}  // namespace actcomp::sim
