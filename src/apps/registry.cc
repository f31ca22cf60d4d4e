// Name→factory application registry. Applications self-register with
// AppRegistrar from their own translation units (see the bottom of each
// app's .cc); this file only owns the table and the fixed paper-ordering
// lists. New applications — including out-of-tree extensions like the
// synthetic workloads in src/wkld — need no edit here.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "src/apps/app.h"
#include "src/common/check.h"

namespace hlrc {

namespace {

std::map<std::string, AppRegistrar::Factory>& Registry() {
  // Leaked Meyer singleton: safe to use from registrars in any translation
  // unit regardless of static-initialization order.
  static auto* registry = new std::map<std::string, AppRegistrar::Factory>();
  return *registry;
}

}  // namespace

const char* AppScaleName(AppScale scale) {
  switch (scale) {
    case AppScale::kTiny:
      return "tiny";
    case AppScale::kDefault:
      return "default";
    case AppScale::kPaper:
      return "paper";
  }
  return "?";
}

bool ParseAppScale(const std::string& name, AppScale* scale) {
  for (const AppScale s : {AppScale::kTiny, AppScale::kDefault, AppScale::kPaper}) {
    if (name == AppScaleName(s)) {
      *scale = s;
      return true;
    }
  }
  return false;
}

AppRegistrar::AppRegistrar(const char* name, Factory factory) {
  const bool inserted = Registry().emplace(name, std::move(factory)).second;
  HLRC_CHECK_MSG(inserted, "duplicate app registration '%s'", name);
}

const std::vector<std::string>& AppNames() {
  static const std::vector<std::string> kNames = {"lu", "sor", "water-nsq", "water-sp",
                                                  "raytrace"};
  return kNames;
}

const std::vector<std::string>& AllAppNames() {
  static const std::vector<std::string> kNames = {"lu",       "sor", "water-nsq",
                                                  "water-sp", "raytrace", "fft"};
  return kNames;
}

std::vector<std::string> RegisteredAppNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& [name, factory] : Registry()) {
    names.push_back(name);
  }
  return names;
}

std::unique_ptr<App> TryMakeApp(const std::string& name, AppScale scale,
                                std::optional<uint64_t> seed) {
  const auto it = Registry().find(name);
  if (it == Registry().end()) {
    return nullptr;
  }
  return it->second(scale, seed);
}

std::unique_ptr<App> MakeApp(const std::string& name, AppScale scale,
                             std::optional<uint64_t> seed) {
  std::unique_ptr<App> app = TryMakeApp(name, scale, seed);
  HLRC_CHECK_MSG(app != nullptr, "unknown app '%s'", name.c_str());
  return app;
}

std::string RowBandsError(const std::string& app, int rows, int nodes) {
  if (nodes <= rows) {
    return "";
  }
  return "--nodes=" + std::to_string(nodes) + ": expected at most " + std::to_string(rows) +
         " for " + app + " (one band of its " + std::to_string(rows) +
         " rows per node at this scale)";
}

std::string GotWant(double got, double want) {
  char text[80];
  std::snprintf(text, sizeof text, "got %.17g want %.17g", got, want);
  return text;
}

AppRunResult RunApp(App& app, const SimConfig& config) {
  System sys(config);
  app.Setup(sys);
  sys.Run(app.Program());
  AppRunResult result;
  result.report = sys.report();
  result.verified = app.Verify(sys, &result.why);
  return result;
}

}  // namespace hlrc
