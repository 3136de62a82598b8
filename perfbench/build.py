#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program and the benchmark.

Compiles the program's library sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) into .bench_build/classes with the
Scala compiler that ships with Spark, so no sbt start-up or dependency
resolution is needed. The build is skipped when the sources, the jar
directory and the Java version are unchanged since the last build.

Usage (from the root of a checkout): python3 perfbench/build.py
"""
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CLASSES = BUILD / "classes"
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BENCH_SRC = ROOT / "perfbench" / "src"


class BuildError(Exception):
    pass


def jar_dir():
    """Directory of the Spark jars the program compiles against.

    SPARK_HOME wins; otherwise the directory the repo's build.sbt names as
    its unmanaged base.
    """
    home = os.environ.get("SPARK_HOME")
    if home and (Path(home) / "jars").is_dir():
        return Path(home) / "jars"
    sbt = ROOT / "build.sbt"
    if sbt.is_file():
        m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', sbt.read_text())
        if m and Path(m.group(1)).is_dir():
            return Path(m.group(1))
    raise BuildError("no Spark jars: set SPARK_HOME or keep build.sbt's unmanagedBase")


def sources():
    if not PROGRAM_SRC.is_dir():
        raise BuildError(f"program sources not found under {PROGRAM_SRC.relative_to(ROOT)}")
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(BENCH_SRC.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources to build")
    return files


def fingerprint(files, jars):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    h.update(str(jars).encode())
    h.update(" ".join(sorted(p.name for p in jars.glob("*.jar"))).encode())
    h.update(subprocess.run(["java", "-version"], capture_output=True, text=True).stderr.encode())
    return h.hexdigest()


def build():
    """Compile if needed; return the runtime classpath."""
    files = sources()
    jars = jar_dir()
    classpath = f"{CLASSES}{os.pathsep}{jars / '*'}"
    stamp = CLASSES / ".stamp"
    fp = fingerprint(files, jars)
    if stamp.is_file() and stamp.read_text() == fp:
        return classpath
    tmp = BUILD / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = BUILD / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = ["java", "-Xmx2g", "-Xss8m", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp), f"@{argfile}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BuildError("compilation failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    stamp.write_text(fp)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build: {e}")
