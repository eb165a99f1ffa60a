#include "widget.h"

double Half(double x) { return x / 2; }

void WidgetPreset(WidgetOptions* options) { options->widget_src_sets = 4; }
