// Benchmark driver: runs one named workload against the observatory and
// prints one JSON object with its checks, metrics and provenance.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.py builds this binary and turns its output into the
// benchmark's result line.

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

std::string escape(std::string_view text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

void writeMetrics(std::ostream& out, const MetricSet& metrics) {
    out << '{';
    bool first = true;
    for (const auto& [name, metric] : metrics.entries()) {
        out << (first ? "" : ",") << '"' << escape(name)
            << "\":{\"value\":" << metric.value << ",\"unit\":\""
            << escape(metric.unit) << "\"}";
        first = false;
    }
    out << '}';
}

[[noreturn]] void usage(const char* message) {
    std::cerr << "perfbench_driver: " << message
              << "\nusage: perfbench_driver --workload "
                 "<frontdoor|query_storm|corridor_sweep|outage_stream> "
                 "--seed <n> --seconds <s> --trace <0|1>\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value);
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload) {
        usage("--workload is required");
    }
    if (!(options.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    return options;
}

} // namespace

int main(int argc, char** argv) try {
    const Options options = parse(argc, argv);

    // A figure from an unoptimized build says nothing about the program.
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::cerr << "perfbench_driver: refusing to record from a '"
                  << PERFBENCH_BUILD_TYPE << "' build; build Release\n";
        return 3;
    }
#ifndef NDEBUG
    std::cerr << "perfbench_driver: refusing to record with assertions on\n";
    return 3;
#endif

    Workload workload = nullptr;
    if (options.workload == "frontdoor") {
        workload = &runFrontdoor;
    } else if (options.workload == "query_storm") {
        workload = &runQueryStorm;
    } else if (options.workload == "corridor_sweep") {
        workload = &runCorridorSweep;
    } else if (options.workload == "outage_stream") {
        workload = &runOutageStream;
    } else {
        usage(("unknown workload " + options.workload).c_str());
    }

    const RunResult result = workload(options);

    std::ostringstream out;
    out << std::setprecision(17);
    out << "{\"workload\":\"" << escape(options.workload)
        << "\",\"seed\":" << options.seed
        << ",\"seconds\":" << options.seconds
        << ",\"trace\":" << (options.trace ? "true" : "false")
        << ",\"correct\":" << (result.correct ? "true" : "false")
        << ",\"valid\":" << (result.valid ? "true" : "false")
        << ",\"attempted\":" << result.attempted
        << ",\"failed\":" << result.failed << ",\"notes\":[";
    for (std::size_t i = 0; i < result.notes.size(); ++i) {
        out << (i ? "," : "") << '"' << escape(result.notes[i]) << '"';
    }
    out << "],\"end_to_end\":";
    writeMetrics(out, result.endToEnd);
    out << ",\"named\":";
    writeMetrics(out, result.named);
    out << ",\"layers\":";
    writeMetrics(out, result.layers);
    out << ",\"provenance\":{\"build_type\":\"" << PERFBENCH_BUILD_TYPE
        << "\",\"compiler\":\"" << escape(PERFBENCH_COMPILER)
        << "\",\"nproc\":" << threadBudget()
        << ",\"service_lanes\":" << serviceLanes() << "}";
    out << ",\"trace_tree\":"
        << (result.traceJson.empty() ? "null" : result.traceJson) << "}\n";
    std::cout << out.str();
    return result.correct ? 0 : 1;
} catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << "\n";
    return 1;
}
