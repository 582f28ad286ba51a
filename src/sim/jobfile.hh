/**
 * @file
 * Parser for riscbatch job files: a declarative batch description in a
 * small INI-like format (documented in docs/SIM.md).
 *
 *     # comment
 *     [job]
 *     id       = fib-8w          # defaults to "job<N>"
 *     workload = fib_rec         # built-in workload (sets source +
 *                                #   expected checksum), or:
 *     file     = path/to/prog.s  # assembly file on disk
 *     machine  = risc | cisc
 *     windows  = 8               # window count (RISC)
 *     windowed = true | false    # no-window ablation (RISC)
 *     l1i      = 1024,16,4       # size,line,missPenalty[,wt|wb]
 *     l1d      = 4096,16,4       #   (either backend; docs/MEMORY.md)
 *     l2       = 65536,32,20,wb  # unified L2 behind both L1s
 *     maxsteps = 1000000
 *     expect   = 5050            # expected checksum override
 */

#ifndef RISC1_SIM_JOBFILE_HH
#define RISC1_SIM_JOBFILE_HH

#include <string>
#include <vector>

#include "sim/job.hh"

namespace risc1::sim {

/**
 * Parse job-file text; @throws FatalError with a line number on error.
 * Relative `file =` entries resolve against @p baseDir when given.
 */
std::vector<SimJob> parseJobText(const std::string &text,
                                 const std::string &baseDir = "");

/** Read and parse @p path; relative `file =` entries resolve against
 *  the job file's own directory. */
std::vector<SimJob> loadJobFile(const std::string &path);

} // namespace risc1::sim

#endif // RISC1_SIM_JOBFILE_HH
