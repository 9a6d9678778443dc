/*
 * Make a --coverage build count what a process runs before _exit().
 *
 * gcov writes its counters from an exit handler, and _exit() runs no
 * exit handlers, so a forked child that ends in _exit() (dpubench
 * runs every repeat in one) loses all of its counts. Linked with
 * -Wl,--wrap=_exit, this file routes each _exit() call through a
 * gcov dump first. It changes nothing else, and only a coverage
 * build links it (DESIGN.md, "What the workloads touch"):
 *
 *   cc -c tools/gcov_exit.c -o covdpu/gcov_exit.o
 *   cmake -S dpubench -B covdpu ... \
 *       "-DCMAKE_EXE_LINKER_FLAGS=--coverage -Wl,--wrap=_exit \
 *        $PWD/covdpu/gcov_exit.o"
 */

void __gcov_dump(void);
void __real__exit(int status) __attribute__((noreturn));

void __wrap__exit(int status) __attribute__((noreturn));

void
__wrap__exit(int status)
{
    __gcov_dump();
    __real__exit(status);
}
