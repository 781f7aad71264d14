// tegra_cli — extract a table from an unsegmented list on the command line.
//
// Reads one list row per input line (from a file or stdin), segments it with
// TEGRA against a background corpus, and prints the table in one of several
// formats.
//
// Examples:
//   ./tegra_cli list.txt
//   ./tegra_cli --columns 3 --format csv list.txt
//   ./tegra_cli --corpus /tmp/tegra_cache/bweb_20000.idx2 --format markdown -
//   ./tegra_cli --build-corpus web:5000:1 --save-corpus web.idx2 list.txt
//   ./tegra_cli --delimiters ",;:" --example "0:Boston|Massachusetts|645 966"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/tegra.h"
#include "corpus/corpus_stats.h"
#include "corpus/table_io.h"
#include "store/corpus_loader.h"
#include "store/snapshot_writer.h"
#include "synth/corpus_gen.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"

namespace {

void PrintUsage() {
  std::fputs(R"(usage: tegra_cli [options] [input_file|-]

Reads one unsegmented list row per line and prints the extracted table.

options:
  --columns N             segment into exactly N columns (default: auto)
  --alpha X               syntactic weight in [0,1] (default 0.5)
  --delimiters CHARS      extra punctuation delimiters (whitespace always)
  --corpus PATH           open a corpus file: a TGRAIDX2 snapshot or a
                          sharded directory / MANIFEST.tgrs (see
                          tegra_corpusctl)
  --build-corpus SPEC     build a synthetic corpus; SPEC = profile:tables:seed
                          with profile in {web, wiki, enterprise}
                          (default: web:5000:1 when --corpus is not given)
  --save-corpus PATH      publish the built corpus as a TGRAIDX2 snapshot
                          (not with --corpus)
  --example "IDX:a|b|c"   supervised: row IDX is segmented as cells a, b, c
                          (repeatable; cells separated by '|')
  --format FMT            table | csv | tsv | markdown   (default: table)
  --threads N             anchor-evaluation worker threads (default 1)
  --naive                 disable the A* pruning (TEGRA-naive+)
  --jaccard               use Jaccard instead of NPMI for semantic distance
  --stats                 print extraction statistics to stderr
  --trace-out PATH        record pipeline spans and write a Chrome trace JSON
                          (open in chrome://tracing or ui.perfetto.dev)
  --help                  this text
)",
             stderr);
}

struct CliOptions {
  std::string input = "-";
  int columns = 0;
  std::string corpus_path;
  std::string build_spec = "web:5000:1";
  std::string save_corpus;
  std::string format = "table";
  std::vector<std::string> example_specs;
  bool show_stats = false;
  std::string trace_out;
  tegra::TegraOptions tegra;
};

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (arg == "--columns") {
      if (!(v = need_value(i))) return false;
      opts->columns = std::atoi(v);
    } else if (arg == "--alpha") {
      if (!(v = need_value(i))) return false;
      opts->tegra.distance.alpha = std::atof(v);
    } else if (arg == "--delimiters") {
      if (!(v = need_value(i))) return false;
      opts->tegra.tokenizer.punctuation_delimiters = v;
    } else if (arg == "--corpus") {
      if (!(v = need_value(i))) return false;
      opts->corpus_path = v;
    } else if (arg == "--build-corpus") {
      if (!(v = need_value(i))) return false;
      opts->build_spec = v;
    } else if (arg == "--save-corpus") {
      if (!(v = need_value(i))) return false;
      opts->save_corpus = v;
    } else if (arg == "--example") {
      if (!(v = need_value(i))) return false;
      opts->example_specs.emplace_back(v);
    } else if (arg == "--format") {
      if (!(v = need_value(i))) return false;
      opts->format = v;
    } else if (arg == "--threads") {
      if (!(v = need_value(i))) return false;
      opts->tegra.num_threads = std::atoi(v);
    } else if (arg == "--naive") {
      opts->tegra.use_astar = false;
    } else if (arg == "--jaccard") {
      opts->tegra.distance.measure = tegra::SemanticMeasure::kJaccard;
    } else if (arg == "--stats") {
      opts->show_stats = true;
    } else if (arg == "--trace-out") {
      if (!(v = need_value(i))) return false;
      opts->trace_out = v;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else {
      opts->input = arg;
    }
  }
  if (!opts->corpus_path.empty() && !opts->save_corpus.empty()) {
    std::fprintf(stderr, "--save-corpus needs a built corpus, not --corpus\n");
    return false;
  }
  return true;
}

/// The --corpus file, or else the --build-corpus build (published to
/// --save-corpus when given; a failed save only warns).
tegra::Result<std::shared_ptr<const tegra::CorpusView>> BuildOrLoadCorpus(
    const CliOptions& opts) {
  if (!opts.corpus_path.empty()) {
    auto loaded = tegra::store::OpenCorpus(opts.corpus_path);
    if (!loaded.ok()) return loaded.status();
    return loaded->view;
  }
  auto spec = tegra::synth::ParseCorpusSpec(opts.build_spec);
  if (!spec.ok()) return spec.status();
  std::fprintf(stderr, "building %s corpus (%zu tables, seed %llu)...\n",
               tegra::synth::CorpusProfileName(spec->profile), spec->tables,
               static_cast<unsigned long long>(spec->seed));
  auto index = std::make_shared<tegra::ColumnIndex>(
      tegra::synth::BuildBackgroundIndex(spec->profile, spec->tables,
                                         spec->seed));
  if (!opts.save_corpus.empty()) {
    tegra::Status s = tegra::store::WriteSnapshot(*index, opts.save_corpus);
    if (!s.ok()) std::fprintf(stderr, "save-corpus: %s\n", s.ToString().c_str());
  }
  return std::shared_ptr<const tegra::CorpusView>(std::move(index));
}

tegra::Result<std::vector<tegra::SegmentationExample>> ParseExamples(
    const std::vector<std::string>& specs) {
  std::vector<tegra::SegmentationExample> examples;
  for (const std::string& spec : specs) {
    const size_t colon = spec.find(':');
    if (colon == std::string::npos) {
      return tegra::Status::InvalidArgument(
          "example must be IDX:cell|cell|...: " + spec);
    }
    tegra::SegmentationExample ex;
    ex.line_index = static_cast<size_t>(std::atoll(spec.substr(0, colon).c_str()));
    ex.cells = tegra::SplitExact(spec.substr(colon + 1), "|");
    examples.push_back(std::move(ex));
  }
  return examples;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    PrintUsage();
    return 2;
  }

  // Read input lines.
  std::vector<std::string> lines;
  std::istream* in = &std::cin;
  std::ifstream file;
  if (opts.input != "-") {
    file.open(opts.input);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", opts.input.c_str());
      return 1;
    }
    in = &file;
  }
  std::string line;
  while (std::getline(*in, line)) {
    if (!tegra::Trim(line).empty()) lines.push_back(line);
  }
  if (lines.empty()) {
    std::fprintf(stderr, "no input lines\n");
    return 1;
  }

  // Corpus.
  auto corpus = BuildOrLoadCorpus(opts);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  tegra::CorpusStats stats(corpus->get());

  // Tracing: enabled only when the caller asked for a dump, so the default
  // CLI path stays span-free.
  tegra::trace::Tracer& tracer = tegra::trace::Tracer::Global();
  if (!opts.trace_out.empty()) tracer.SetEnabled(true);

  // Extract.
  tegra::TegraExtractor extractor(&stats, opts.tegra);
  tegra::Result<tegra::ExtractionResult> result = [&] {
    if (!opts.example_specs.empty()) {
      auto examples = ParseExamples(opts.example_specs);
      if (!examples.ok()) {
        return tegra::Result<tegra::ExtractionResult>(examples.status());
      }
      return extractor.ExtractWithExamples(lines, *examples);
    }
    if (opts.columns > 0) {
      return extractor.ExtractWithColumns(lines, opts.columns);
    }
    return extractor.Extract(lines);
  }();
  if (!result.ok()) {
    std::fprintf(stderr, "extraction: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (!opts.trace_out.empty()) {
    tegra::Status s =
        tegra::trace::WriteChromeTrace(opts.trace_out, tracer.RingSnapshot());
    if (!s.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", s.ToString().c_str());
    } else {
      std::fprintf(stderr, "trace: %llu spans -> %s\n",
                   static_cast<unsigned long long>(tracer.spans_recorded()),
                   opts.trace_out.c_str());
    }
  }

  // Output.
  const tegra::Table& table = result->table;
  if (opts.format == "csv") {
    std::fputs(tegra::TableToCsv(table).c_str(), stdout);
  } else if (opts.format == "tsv") {
    std::fputs(tegra::TableToTsv(table).c_str(), stdout);
  } else if (opts.format == "markdown") {
    std::fputs(tegra::TableToMarkdown(table).c_str(), stdout);
  } else {
    std::fputs(table.ToString().c_str(), stdout);
  }

  if (opts.show_stats) {
    std::fprintf(stderr,
                 "columns=%d sp=%.3f per_column=%.3f anchor_line=%zu "
                 "nodes=%zu time=%.3fs\n",
                 result->num_columns, result->sp,
                 result->per_column_objective, result->anchor_line,
                 result->nodes_expanded, result->seconds);
  }
  return 0;
}
